(* Tests of the sequencing log's claim cursor — the mechanism that lets
   overlapping (pipelined) ordering batches select disjoint entry sets
   while claimed entries stay live for capacity accounting, duplicate
   filtering, and recovery flushes. *)

open Lazylog

let checki = Alcotest.(check int)

let rid c s = { Types.Rid.client = c; seq = s }

let entry c s =
  Types.Data
    (Types.record ~rid:(rid c s) ~size:64 ~data:(string_of_int s) ())

let data = function
  | Types.Data r -> r.Types.data
  | Types.Meta _ -> Alcotest.fail "expected data entry"

let mk n =
  let t = Seq_log.create ~capacity:1024 in
  for i = 1 to n do
    match Seq_log.try_append t (entry 0 i) with
    | Some Seq_log.Appended -> ()
    | _ -> Alcotest.fail "append failed"
  done;
  t

let test_claim_takes_in_order () =
  let t = mk 5 in
  let batch = Seq_log.claim_unordered t ~max:3 in
  checki "claims up to max" 3 (Array.length batch);
  Alcotest.(check (list string))
    "log order" [ "1"; "2"; "3" ]
    (Array.to_list (Array.map data batch));
  checki "claimed entries still live" 5 (Seq_log.live_count t);
  checki "unclaimed shrinks" 2 (Seq_log.unclaimed_count t)

let test_claims_are_disjoint () =
  let t = mk 6 in
  let a = Seq_log.claim_unordered t ~max:4 in
  let b = Seq_log.claim_unordered t ~max:4 in
  checki "first claim full" 4 (Array.length a);
  checki "second claim gets the rest" 2 (Array.length b);
  let rids e = Types.entry_rid e in
  Array.iter
    (fun ea ->
      Array.iter
        (fun eb ->
          if Types.Rid.equal (rids ea) (rids eb) then
            Alcotest.fail "entry claimed twice")
        b)
    a;
  checki "nothing left unclaimed" 0 (Seq_log.unclaimed_count t);
  checki "empty claim" 0 (Array.length (Seq_log.claim_unordered t ~max:4))

let test_remove_ordered_updates_claim_accounting () =
  let t = mk 4 in
  let batch = Seq_log.claim_unordered t ~max:2 in
  Seq_log.remove_ordered t
    (Array.to_list (Array.map Types.entry_rid batch));
  checki "live drops" 2 (Seq_log.live_count t);
  checki "unclaimed unaffected by GC of claimed batch" 2
    (Seq_log.unclaimed_count t);
  let rest = Seq_log.claim_unordered t ~max:10 in
  checki "remaining entries claimable" 2 (Array.length rest)

let test_reset_claims_reexposes_entries () =
  let t = mk 3 in
  let a = Seq_log.claim_unordered t ~max:3 in
  checki "all claimed" 3 (Array.length a);
  checki "nothing unclaimed" 0 (Seq_log.unclaimed_count t);
  (* A discarded in-flight batch: forget the claims, entries come back. *)
  Seq_log.reset_claims t;
  checki "unclaimed restored" 3 (Seq_log.unclaimed_count t);
  let b = Seq_log.claim_unordered t ~max:3 in
  checki "reclaimable" 3 (Array.length b)

let test_clear_resets_claims () =
  let t = mk 3 in
  ignore (Seq_log.claim_unordered t ~max:2 : Types.entry array);
  Seq_log.clear t;
  checki "no live entries" 0 (Seq_log.live_count t);
  checki "no unclaimed entries" 0 (Seq_log.unclaimed_count t);
  checki "claim on cleared log is empty" 0
    (Array.length (Seq_log.claim_unordered t ~max:4));
  (* Fresh appends after the reset are claimable again. *)
  (match Seq_log.try_append t (entry 1 1) with
  | Some Seq_log.Appended -> ()
  | _ -> Alcotest.fail "append after clear failed");
  checki "fresh entry claimable" 1
    (Array.length (Seq_log.claim_unordered t ~max:4))

let test_unordered_includes_claimed () =
  (* The recovery flush reads [unordered]; claimed-but-unGCed entries must
     be part of it or a view change would lose them. *)
  let t = mk 4 in
  ignore (Seq_log.claim_unordered t ~max:2 : Types.entry array);
  checki "unordered sees claimed entries" 4
    (List.length (Seq_log.unordered t ()))

(* --- Model-based property --- *)

(* The reference: the live entries in slot order, each as
   [(slot, rid, log)], plus the highest ordered request id per client
   (the no-op rid's client -1 is never recorded) and the claim cursor. *)
module Imap = Map.Make (Int)

type model = {
  mutable live : (int * Types.Rid.t * int) list;
  mutable ordered : int Imap.t;
  mutable tail : int;
  mutable claimed : int;
}

let m_head m = match m.live with (s, _, _) :: _ -> s | [] -> m.tail

let m_live m rid = List.exists (fun (_, r, _) -> Types.Rid.equal r rid) m.live

let m_ordered m (rid : Types.Rid.t) =
  match Imap.find_opt rid.client m.ordered with
  | Some s -> rid.seq <= s
  | None -> false

let m_known m rid = m_live m rid || m_ordered m rid

let m_note m (rid : Types.Rid.t) =
  if rid.client >= 0 then
    m.ordered <-
      Imap.update rid.client
        (function Some s when s >= rid.seq -> Some s | _ -> Some rid.seq)
        m.ordered

let m_append m rid log =
  if m_known m rid then Seq_log.Duplicate
  else begin
    m.live <- m.live @ [ (m.tail, rid, log) ];
    m.tail <- m.tail + 1;
    Seq_log.Appended
  end

type op =
  | Append of int * int * int  (* client, seq, log *)
  | Batch of (int * int * int) list
  | Claim of int
  | Remove of int list * (int * int) list
      (* live entries to order, by index; plus rids that need not be live *)
  | Mark of (int * int) list
  | Reset_claims
  | Clear
  | Pinned_burst of int
      (* order this many fresh entries past whatever is live at the head *)

(* Clients 0-5, a few past the per-client array's initial 64, and the
   no-op rid's client -1. *)
let gen_client =
  QCheck.Gen.(
    frequency
      [ (8, int_bound 5); (2, int_range 60 300); (1, return (-1)) ])

let gen_rid = QCheck.Gen.(pair gen_client (int_bound 12))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map3 (fun c s l -> Append (c, s, l)) gen_client (int_bound 12)
            (int_bound 2) );
        ( 3,
          map
            (fun l -> Batch l)
            (list_size (int_range 1 6)
               (map3 (fun c s l -> (c, s, l)) gen_client (int_bound 12)
                  (int_bound 2))) );
        (3, map (fun n -> Claim n) (int_range 1 5));
        ( 4,
          map2
            (fun ix extra -> Remove (ix, extra))
            (list_size (int_bound 4) (int_bound 10))
            (list_size (int_bound 2) gen_rid) );
        (1, map (fun l -> Mark l) (list_size (int_bound 3) gen_rid));
        (1, return Reset_claims);
        (1, return Clear);
        (1, map (fun n -> Pinned_burst n) (int_range 1030 1300));
      ])

let rid_of (c, s) =
  if c < 0 then Types.no_op.Types.rid else { Types.Rid.client = c; seq = s }

let entry_of rid log =
  Types.Data (Types.record ~rid ~size:8 ~log ())

let append_result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
        | Seq_log.Appended -> "Appended"
        | Duplicate -> "Duplicate"))
    ( = )

let burst_client = 5000

let prop_seq_log_matches_model =
  QCheck.Test.make ~name:"seq_log matches a list model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) gen_op))
    (fun ops ->
      let t = Seq_log.create ~capacity:100_000 in
      let m = { live = []; ordered = Imap.empty; tail = 0; claimed = 0 } in
      let burst_seq = ref 0 in
      let probe_rids = ref [] in
      let apply = function
        | Append (c, s, log) ->
          let rid = rid_of (c, s) in
          probe_rids := rid :: !probe_rids;
          let want = m_append m rid log in
          (match Seq_log.try_append t (entry_of rid log) with
          | Some got -> Alcotest.check append_result "append" want got
          | None -> Alcotest.fail "append refused below capacity")
        | Batch l ->
          let rids = List.map (fun (c, s, log) -> (rid_of (c, s), log)) l in
          probe_rids := List.map fst rids @ !probe_rids;
          let want = List.map (fun (rid, log) -> m_append m rid log) rids in
          (match
             Seq_log.append_batch_or_wait t
               (List.map (fun (rid, log) -> entry_of rid log) rids)
               ~cancel:(fun () -> false)
           with
          | Some got -> Alcotest.(check (list append_result)) "batch" want got
          | None -> Alcotest.fail "batch cancelled")
        | Claim n ->
          let start = max m.claimed (m_head m) in
          let fresh = List.filter (fun (s, _, _) -> s >= start) m.live in
          let taken = List.filteri (fun i _ -> i < n) fresh in
          (match List.rev taken with
          | (s, _, _) :: _ -> m.claimed <- s + 1
          | [] -> ());
          let got = Seq_log.claim_unordered t ~max:n in
          Alcotest.(check (list int)) "claimed slots' seqs"
            (List.map (fun (_, r, _) -> r.Types.Rid.seq) taken)
            (Array.to_list
               (Array.map (fun e -> (Types.entry_rid e).Types.Rid.seq) got))
        | Remove (ix, extra) ->
          let n = List.length m.live in
          let from_live =
            if n = 0 then []
            else
              List.map
                (fun i ->
                  let _, r, _ = List.nth m.live (i mod n) in
                  r)
                ix
          in
          (* Out of slot order: the newest chosen entries first. *)
          let rids = List.rev from_live @ List.map rid_of extra in
          List.iter (m_note m) rids;
          m.live <-
            List.filter
              (fun (_, r, _) -> not (List.exists (Types.Rid.equal r) rids))
              m.live;
          Seq_log.remove_ordered t rids
        | Mark l ->
          let rids = List.map rid_of l in
          List.iter (m_note m) rids;
          Seq_log.mark_ordered t rids
        | Reset_claims ->
          m.claimed <- m_head m;
          Seq_log.reset_claims t
        | Clear ->
          m.live <- [];
          m.claimed <- m.tail;
          Seq_log.clear t
        | Pinned_burst k ->
          (* More slots than the initial ring holds go by while the head
             entry (if any) stays live: the ring must grow, not wrap. *)
          let rids =
            List.init k (fun _ ->
                incr burst_seq;
                { Types.Rid.client = burst_client; seq = !burst_seq })
          in
          List.iter
            (fun rid ->
              ignore (m_append m rid 1 : Seq_log.append_result);
              ignore (Seq_log.try_append t (entry_of rid 1)))
            rids;
          List.iter (m_note m) rids;
          m.live <-
            List.filter
              (fun (_, r, _) -> r.Types.Rid.client <> burst_client)
              m.live;
          Seq_log.remove_ordered t rids
      in
      List.iter
        (fun op ->
          apply op;
          let claimed_live =
            List.length (List.filter (fun (s, _, _) -> s < m.claimed) m.live)
          in
          checki "live" (List.length m.live) (Seq_log.live_count t);
          checki "unclaimed"
            (List.length m.live - claimed_live)
            (Seq_log.unclaimed_count t);
          List.iter
            (fun log ->
              checki "live per log"
                (List.length (List.filter (fun (_, _, l) -> l = log) m.live))
                (Seq_log.live_count_for t ~log))
            [ 0; 1; 2 ];
          Alcotest.(check (list (pair int int)))
            "unordered"
            (List.map
               (fun (_, (r : Types.Rid.t), _) -> (r.client, r.seq))
               m.live)
            (List.map
               (fun e ->
                 let (r : Types.Rid.t) = Types.entry_rid e in
                 (r.client, r.seq))
               (Seq_log.unordered t ()));
          List.iter
            (fun rid ->
              Alcotest.(check bool) "mem" (m_live m rid) (Seq_log.mem t rid);
              Alcotest.(check bool)
                "known" (m_known m rid) (Seq_log.known t rid))
            (rid_of (-1, 0)
            :: { Types.Rid.client = 4000; seq = 0 }
            :: !probe_rids))
        ops;
      true)

(* --- Allocation budget --- *)

let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The replica's steady state: [clients] round-robin producers append a
   batch, the orderer claims it, and GC removes it. The driver itself
   allocates each entry (record, [Data], rid), the rid list and the
   claimed array: about 15 words per entry. *)
let cycle_words ~clients =
  let t = Seq_log.create ~capacity:1_000_000 in
  let batch = 64 in
  let seqs = Array.make clients 0 in
  let next = ref 0 in
  let run entries =
    for _ = 1 to entries / batch do
      for _ = 1 to batch do
        let c = !next mod clients in
        incr next;
        seqs.(c) <- seqs.(c) + 1;
        let rid = { Types.Rid.client = c; seq = seqs.(c) } in
        ignore
          (Seq_log.try_append t (Types.Data (Types.record ~rid ~size:64 ()))
            : Seq_log.append_result option)
      done;
      let claimed = Seq_log.claim_unordered t ~max:batch in
      Seq_log.remove_ordered t
        (Array.fold_right (fun e acc -> Types.entry_rid e :: acc) claimed [])
    done
  in
  (* Warm up: every client ordered once, the tables at their size. *)
  run (max clients 4096);
  let n = 200_000 in
  let w0 = words_allocated () in
  run n;
  (words_allocated () -. w0) /. float_of_int n

let check_cycle ~clients () =
  let words = cycle_words ~clients in
  if words > 22.0 then
    Alcotest.failf "%.2f words per entry over the budget of 22" words

let () =
  Alcotest.run "seq_log"
    [
      ( "claims",
        [
          Alcotest.test_case "claim takes in order" `Quick
            test_claim_takes_in_order;
          Alcotest.test_case "claims are disjoint" `Quick
            test_claims_are_disjoint;
          Alcotest.test_case "GC updates claim accounting" `Quick
            test_remove_ordered_updates_claim_accounting;
          Alcotest.test_case "reset re-exposes entries" `Quick
            test_reset_claims_reexposes_entries;
          Alcotest.test_case "clear resets claims" `Quick
            test_clear_resets_claims;
          Alcotest.test_case "unordered includes claimed" `Quick
            test_unordered_includes_claimed;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_seq_log_matches_model ]);
      ( "alloc",
        [
          Alcotest.test_case "cycle, 8 clients" `Quick (check_cycle ~clients:8);
          Alcotest.test_case "cycle, 10^5 clients" `Quick
            (check_cycle ~clients:100_000);
        ] );
    ]
