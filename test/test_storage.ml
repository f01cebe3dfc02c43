(* Tests for the storage substrate: mem log, ring buffer, disk model,
   and the write-buffered store. *)

open Ll_sim
open Ll_storage

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Mem_log --- *)

let test_mem_log_basic () =
  let l = Mem_log.create () in
  checki "p0" 0 (Mem_log.append l "a");
  checki "p1" 1 (Mem_log.append l "b");
  Alcotest.(check (option string)) "get" (Some "a") (Mem_log.get l 0);
  Mem_log.set l 5 "sparse";
  checki "length after sparse set" 6 (Mem_log.length l);
  Alcotest.(check (option string)) "hole" None (Mem_log.get l 3)

let test_mem_log_trim_truncate () =
  let l = Mem_log.create () in
  for i = 0 to 9 do
    ignore (Mem_log.append l i)
  done;
  Mem_log.trim l 4;
  checki "first" 4 (Mem_log.first l);
  Alcotest.(check (option int)) "trimmed" None (Mem_log.get l 2);
  Mem_log.truncate l 7;
  checki "length" 7 (Mem_log.length l);
  Alcotest.(check (option int)) "truncated" None (Mem_log.get l 8);
  Alcotest.(check (list (pair int int)))
    "survivors"
    [ (4, 4); (5, 5); (6, 6) ]
    (Mem_log.to_list l)

(* Multi-log packing: the log id sits above bit 40 (as in [Logid]). *)
let packed ~log pos = (log lsl 40) lor pos

(* [1 lsl 40] (log 1, position 0) and [256] hash alike under the
   polymorphic hash, which folds the high 32 bits onto the low ones; the
   index must still keep them apart. *)
let test_mem_log_hash_collision () =
  let hi = packed ~log:1 0 in
  checki "keys collide under Hashtbl.hash" (Hashtbl.hash 256)
    (Hashtbl.hash hi);
  let l = Mem_log.create () in
  Mem_log.set l hi "log1";
  Mem_log.set l 256 "log0";
  Alcotest.(check (option string)) "high" (Some "log1") (Mem_log.get l hi);
  Alcotest.(check (option string)) "low" (Some "log0") (Mem_log.get l 256);
  Alcotest.(check (list (pair int string)))
    "ascending" [ (256, "log0"); (hi, "log1") ] (Mem_log.to_list l);
  Mem_log.remove l 256;
  Alcotest.(check (option string)) "high survives" (Some "log1")
    (Mem_log.get l hi);
  Alcotest.(check (option string)) "low removed" None (Mem_log.get l 256)

(* The same fold bites fabric links packed as [(src lsl 20) lor dst]
   once [src >= 4096]. [Itbl] keeps colliding keys apart and spreads
   both key families over its slots: 100 x 100 of each leave no lookup
   probing more than 6 slots (the bound is 8), where the polymorphic
   hash piles 101 keys into one bucket. *)
let test_itbl_hash_collision () =
  let link src dst = (src lsl 20) lor dst in
  let pairs = [ (link 4096 0, link 0 1); (packed ~log:1 0, 256) ] in
  List.iter
    (fun (a, b) ->
      checki "keys collide under Hashtbl.hash" (Hashtbl.hash a)
        (Hashtbl.hash b))
    pairs;
  let t = Itbl.create () in
  List.iter (fun (a, b) -> Itbl.replace t a "a"; Itbl.replace t b "b") pairs;
  List.iter
    (fun (a, b) ->
      Alcotest.(check string) "first" "a" (Itbl.find t a);
      Alcotest.(check string) "second" "b" (Itbl.find t b);
      Itbl.remove t b;
      Alcotest.(check string) "first survives" "a" (Itbl.find t a);
      checkb "second removed" false (Itbl.mem t b))
    pairs;
  let t = Itbl.create () in
  for i = 0 to 99 do
    for j = 0 to 99 do
      Itbl.replace t (link (4096 * i) j) ();
      Itbl.replace t (packed ~log:i j) ()
    done
  done;
  checki "bindings" 19_900 (Itbl.length t);
  checkb "no long probe run" true (Itbl.max_probe t <= 8)

(* The table against a [Map] oracle. Keys mix a small dense range with
   families that share a home slot in every table under 2^24 slots (a
   key bit [b >= 32] reaches slot bits [>= b - 32] only), so probe runs
   grow long, wrap the array's end, and deletions shift entries back
   across growth; test_hash_collision's pairs and two negative keys ride
   along. Every step checks the whole key universe. *)
module Imap = Map.Make (Int)

type tbl_op =
  | T_replace of int * int
  | T_remove of int
  | T_find of int
  | T_reset
  | T_iter
  | T_fold

let pp_tbl_op = function
  | T_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | T_remove k -> Printf.sprintf "remove %d" k
  | T_find k -> Printf.sprintf "find %d" k
  | T_reset -> "reset"
  | T_iter -> "iter"
  | T_fold -> "fold"

let tbl_keys =
  let link src dst = (src lsl 20) lor dst in
  let family base = List.init 6 (fun i -> base + (i lsl 56)) in
  List.init 24 Fun.id
  @ family 3 @ family 1_000_003
  @ [ link 4096 0; link 0 1; packed ~log:1 0; 256; -1; min_int ]

let gen_tbl_op =
  QCheck.Gen.(
    let key = oneofl tbl_keys in
    frequency
      [
        (8, map2 (fun k v -> T_replace (k, v)) key (int_bound 1000));
        (5, map (fun k -> T_remove k) key);
        (2, map (fun k -> T_find k) key);
        (1, return T_reset);
        (1, return T_iter);
        (1, return T_fold);
      ])

let prop_itbl_matches_map =
  QCheck.Test.make ~name:"itbl matches a Map oracle" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_tbl_op ops))
       QCheck.Gen.(list_size (int_bound 200) gen_tbl_op))
    (fun ops ->
      let t = Itbl.create () in
      let m = ref Imap.empty in
      let sorted l = List.sort compare l in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | T_replace (k, v) ->
              Itbl.replace t k v;
              m := Imap.add k v !m;
              true
            | T_remove k ->
              Itbl.remove t k;
              m := Imap.remove k !m;
              true
            | T_find k -> (
              match Itbl.find t k with
              | v -> Imap.find_opt k !m = Some v
              | exception Not_found -> not (Imap.mem k !m))
            | T_reset ->
              Itbl.reset t;
              m := Imap.empty;
              true
            | T_iter ->
              let seen = ref [] in
              Itbl.iter (fun k v -> seen := (k, v) :: !seen) t;
              sorted !seen = Imap.bindings !m
            | T_fold ->
              sorted (Itbl.fold (fun k v acc -> (k, v) :: acc) t [])
              = Imap.bindings !m
          in
          step_ok
          && Itbl.length t = Imap.cardinal !m
          && List.for_all
               (fun k ->
                 Itbl.find_opt t k = Imap.find_opt k !m
                 && Itbl.mem t k = Imap.mem k !m)
               tbl_keys)
        ops)

(* [Rid.pack] round-trips over its documented range, ends included, and
   rejects a rid just outside it on either side of either field. *)
let test_rid_packing () =
  let open Lazylog.Types in
  let cmax = (1 lsl Rid.client_bits) - 2 and smax = (1 lsl Rid.seq_bits) - 2 in
  let round_trips (client, seq) =
    let r = { Rid.client; seq } in
    Rid.equal r (Rid.unpack (Rid.pack r))
  in
  List.iter
    (fun cs -> checkb "round-trips" true (round_trips cs))
    [ (-1, -1); (0, 0); (cmax, smax); (-1, smax); (cmax, -1); (7, 1 lsl 32) ];
  checki "the no-op rid packs to 0" 0 (Rid.pack no_op.rid);
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 10_000 do
    let c = Random.State.int rng (cmax + 2) - 1
    and s = Random.State.full_int rng (smax + 2) - 1 in
    if not (round_trips (c, s)) then Alcotest.failf "rid %d.%d" c s
  done;
  List.iter
    (fun (client, seq) ->
      match Rid.pack { Rid.client; seq } with
      | _ -> Alcotest.failf "rid %d.%d packed" client seq
      | exception Invalid_argument _ -> ())
    [
      (-2, 0); (cmax + 1, 0); (0, -2); (0, smax + 1); (min_int, 0);
      (0, max_int);
    ]

module Oracle = Map.Make (Int)

type mem_op =
  | Set of int * int
  | Remove of int
  | Truncate of int
  | Trim of int
  | Get of int
  | Iter of int

let pp_mem_op = function
  | Set (p, v) -> Printf.sprintf "set %d %d" p v
  | Remove p -> Printf.sprintf "remove %d" p
  | Truncate p -> Printf.sprintf "truncate %d" p
  | Trim p -> Printf.sprintf "trim %d" p
  | Get p -> Printf.sprintf "get %d" p
  | Iter p -> Printf.sprintf "iter %d" p

(* Packed positions over 80 logs, most of them in four hot logs so that
   ranges and lookups hit stored entries, clustered around the first page
   boundaries so pages straddle and fill with holes. *)
let gen_pos =
  QCheck.Gen.(
    map3
      (fun log page off -> packed ~log (max 0 ((page * 1024) + off)))
      (frequency [ (3, int_bound 3); (1, int_bound 79) ])
      (int_bound 3) (int_range (-3) 3))

let gen_mem_op =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun p v -> Set (p, v)) gen_pos small_nat);
        (2, map (fun p -> Remove p) gen_pos);
        (1, map (fun p -> Truncate p) gen_pos);
        (1, map (fun p -> Trim p) gen_pos);
        (3, map (fun p -> Get p) gen_pos);
        (1, map (fun p -> Iter p) gen_pos);
      ])

(* The oracle: a map of the visible entries plus [first]/[length]. *)
let prop_mem_log_matches_map =
  QCheck.Test.make ~name:"mem_log matches a Map oracle" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops))
       QCheck.Gen.(list_size (int_bound 150) gen_mem_op))
    (fun ops ->
      let l = Mem_log.create () in
      let m = ref Oracle.empty and first = ref 0 and next = ref 0 in
      let from_of p = Oracle.filter (fun k _ -> k >= p) !m in
      List.for_all
        (fun op ->
          (match op with
          | Set (p, v) ->
            Mem_log.set l p v;
            if p >= !first then m := Oracle.add p v !m;
            next := max !next (p + 1);
            true
          | Remove p ->
            Mem_log.remove l p;
            m := Oracle.remove p !m;
            true
          | Truncate n ->
            Mem_log.truncate l n;
            let n = max n !first in
            if n < !next then begin
              m := Oracle.filter (fun k _ -> k < n) !m;
              next := n
            end;
            true
          | Trim n ->
            Mem_log.trim l n;
            let n = min n !next in
            if n > !first then begin
              m := from_of n;
              first := n
            end;
            true
          | Get p -> Mem_log.get l p = Oracle.find_opt p !m
          | Iter p ->
            let seen = ref [] in
            Mem_log.iter l ~from:p (fun k v -> seen := (k, v) :: !seen);
            List.rev !seen = Oracle.bindings (from_of p))
          && Mem_log.to_list l = Oracle.bindings !m
          && Mem_log.first l = !first
          && Mem_log.length l = !next)
        ops)

(* --- Allocation budgets ---

   Words are counted across both heaps, so a page array (allocated
   directly in the major heap) counts as much as a minor-heap cell. An
   overwrite costs nothing; a fresh entry costs about one word, its share
   of a page. The fill budget of 2 words is half of what a hash table
   keyed by position pays for its 4-word bucket cell alone. *)

let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let check_budget what ~budget words =
  if words > budget then
    Alcotest.failf "%s: %.2f words/op over the budget of %.1f" what words
      budget

(* Overwrites inside pages that already exist: no page, no cell, no box. *)
let test_mem_log_set_words () =
  let l = Mem_log.create () in
  for pos = 0 to 1023 do
    Mem_log.set l pos pos
  done;
  let n = 100_000 in
  let w0 = words_allocated () in
  for i = 1 to n do
    Mem_log.set l (i land 1023) i
  done;
  check_budget "steady-state set" ~budget:0.5
    ((words_allocated () -. w0) /. float_of_int n)

(* 100 interleaved logs x 10^4 fresh positions each, as a shard's map of
   the multi-log fabric sees them; page arrays and the page table
   included. *)
let test_mem_log_fill_words () =
  let logs = 100 and per_log = 10_000 in
  let w0 = words_allocated () in
  let l = Mem_log.create () in
  for pos = 0 to per_log - 1 do
    for log = 0 to logs - 1 do
      Mem_log.set l (packed ~log pos) pos
    done
  done;
  let words = words_allocated () -. w0 in
  checki "all present" (logs * per_log) (List.length (Mem_log.to_list l));
  check_budget "fill 100 logs" ~budget:2.0
    (words /. float_of_int (logs * per_log))

(* A warmed table's record-path cycle: replace an existing key, find it,
   remove it and insert it again. 4 ops per key, 0 words each: a slot
   holds the binding, so no op builds a cell. The measurement's own
   allocation (the counters it reads) is subtracted. *)
let cycle_words ~keys ~cycle =
  let probe_cost =
    let w0 = words_allocated () in
    words_allocated () -. w0
  in
  for _ = 1 to 3 do
    Array.iter cycle keys
  done;
  let rounds = 100 in
  let w0 = words_allocated () in
  for _ = 1 to rounds do
    Array.iter cycle keys
  done;
  (words_allocated () -. w0 -. probe_cost)
  /. float_of_int (4 * rounds * Array.length keys)

let test_itbl_cycle_words () =
  let t = Itbl.create () in
  let keys = Array.init 1000 (fun i -> packed ~log:(i mod 10) i) in
  Array.iter (fun k -> Itbl.replace t k 0) keys;
  let words =
    cycle_words ~keys ~cycle:(fun k ->
        Itbl.replace t k 1;
        ignore (Itbl.find t k : int);
        Itbl.remove t k;
        Itbl.replace t k 2)
  in
  check_budget "itbl cycle" ~budget:0.0 words

let test_rid_tbl_cycle_words () =
  let open Lazylog.Types in
  let t = Rid_tbl.create () in
  let keys =
    Array.init 1000 (fun i -> { Rid.client = i mod 128; seq = i / 128 })
  in
  Array.iter (fun r -> Rid_tbl.replace t r 0) keys;
  let words =
    cycle_words ~keys ~cycle:(fun r ->
        Rid_tbl.replace t r 1;
        ignore (Rid_tbl.find t r : int);
        Rid_tbl.remove t r;
        Rid_tbl.replace t r 2)
  in
  check_budget "rid_tbl cycle" ~budget:0.0 words

(* --- Ring buffer --- *)

let ring_mem r i =
  match Ring_buffer.find r i with _ -> true | exception Not_found -> false

let ring_entries r =
  let acc = ref [] in
  ignore
    (Ring_buffer.iter_from r ~from:0 ~max:max_int (fun v -> acc := v :: !acc)
      : int);
  List.rev !acc

let test_ring_basic () =
  let r = Ring_buffer.create ~capacity:4 () in
  checki "i0" 0 (Ring_buffer.append r "a");
  checki "i1" 1 (Ring_buffer.append r "b");
  Alcotest.(check string) "find" "a" (Ring_buffer.find r 0);
  ignore (Ring_buffer.append r "c" : int);
  ignore (Ring_buffer.append r "d" : int);
  (* A hole behind the head leaves the head where it is... *)
  Ring_buffer.remove r 1;
  checki "head pinned" 0 (Ring_buffer.head r);
  checkb "hole" false (ring_mem r 1);
  (* ...and removing the head skips it. *)
  Ring_buffer.remove r 0;
  checki "head skips the hole" 2 (Ring_buffer.head r);
  checkb "gc'd" false (ring_mem r 0);
  checki "i4 wraps" 4 (Ring_buffer.append r "e");
  checki "length" 3 (Ring_buffer.length r);
  Alcotest.(check (list string)) "live" [ "c"; "d"; "e" ] (ring_entries r);
  checki "iter_from stops after max" 4
    (Ring_buffer.iter_from r ~from:0 ~max:2 ignore);
  Ring_buffer.clear r;
  checki "clear: head = tail" (Ring_buffer.tail r) (Ring_buffer.head r);
  checki "tail keeps counting" 5 (Ring_buffer.append r "f")

let test_ring_grows () =
  (* A live entry pinned at the head while the tail runs far ahead: the
     slot array doubles instead of refusing appends. *)
  let r = Ring_buffer.create ~capacity:4 () in
  for i = 0 to 99 do
    checki "slot" i (Ring_buffer.append r i);
    if i > 0 then Ring_buffer.remove r i
  done;
  checki "head pinned" 0 (Ring_buffer.head r);
  checki "span" 100 (Ring_buffer.length r);
  for i = 100 to 109 do
    ignore (Ring_buffer.append r i : int)
  done;
  Alcotest.(check (list int)) "live" (0 :: List.init 10 (fun i -> 100 + i))
    (ring_entries r);
  Ring_buffer.remove r 0;
  checki "head jumps the holes" 100 (Ring_buffer.head r)

type ring_op = R_append | R_remove of int | R_clear

let prop_ring_matches_model =
  (* Random append/remove/clear sequences agree with a model of the live
     slots: membership, values, the head (lowest live slot, or the tail
     when empty) and slot-ordered iteration. Slot [i] holds value [i], so
     the model is a growable bitmap of live slots plus its lowest live
     slot, and each step's check is linear in the slot span. *)
  let gen =
    QCheck.Gen.(
      list
        (frequency
           [
             (6, return R_append);
             (5, map (fun k -> R_remove k) (int_bound 40));
             (1, return R_clear);
           ]))
  in
  QCheck.Test.make ~name:"ring buffer matches model" ~count:300
    (QCheck.make gen) (fun ops ->
      (* Most probes of dead slots raise [Not_found]; recording a backtrace
         for each would double the property's run time. *)
      let bt = Printexc.backtrace_status () in
      Printexc.record_backtrace false;
      Fun.protect ~finally:(fun () -> Printexc.record_backtrace bt)
      @@ fun () ->
      let r = Ring_buffer.create ~capacity:2 () in
      let live = ref (Bytes.make 64 '\000') and tail = ref 0 and lo = ref 0 in
      let is_live i = i >= 0 && i < !tail && Bytes.get !live i = '\001' in
      List.for_all
        (fun op ->
          (match op with
          | R_append ->
            let i = Ring_buffer.append r !tail in
            assert (i = !tail);
            if i >= Bytes.length !live then begin
              let b = Bytes.make (2 * Bytes.length !live) '\000' in
              Bytes.blit !live 0 b 0 i;
              live := b
            end;
            Bytes.set !live i '\001';
            incr tail
          | R_remove k ->
            (* Mostly slots near the tail, some below the head. *)
            let slot = !tail - 1 - k in
            Ring_buffer.remove r slot;
            if slot >= 0 then Bytes.set !live slot '\000'
          | R_clear ->
            Ring_buffer.clear r;
            Bytes.fill !live 0 !tail '\000');
          while !lo < !tail && not (is_live !lo) do
            incr lo
          done;
          let entries = ref [] in
          for i = !tail - 1 downto !lo do
            if is_live i then entries := i :: !entries
          done;
          Ring_buffer.head r = !lo
          && Ring_buffer.tail r = !tail
          && ring_entries r = !entries
          &&
          let rec slots_agree i =
            i > !tail
            || (match Ring_buffer.find r i with
               | v -> is_live i && v = i
               | exception Not_found -> not (is_live i))
               && slots_agree (i + 1)
          in
          slots_agree (-1))
        ops)

(* --- Disk --- *)

let test_disk_serializes () =
  Engine.run (fun () ->
      let d = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:1.0 () in
      let done_at = ref [] in
      for _ = 1 to 3 do
        Engine.spawn (fun () ->
            Disk.write d ~bytes:10_000;
            done_at := Engine.now () :: !done_at)
      done;
      Engine.sleep (Engine.ms 1);
      (* each op = 10us + 10us = 20us, serialized: 20/40/60us *)
      Alcotest.(check (list int))
        "serialized completions"
        [ Engine.us 20; Engine.us 40; Engine.us 60 ]
        (List.rev !done_at))

let test_disk_counters () =
  Engine.run (fun () ->
      let d = Disk.create () in
      Disk.write d ~bytes:100;
      Disk.write d ~bytes:200;
      checki "ops" 2 (Disk.ops d);
      checki "bytes" 300 (Disk.bytes_written d))

let test_disk_degrade () =
  Engine.run (fun () ->
      let d = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:1.0 () in
      let t0 = Engine.now () in
      Disk.write d ~bytes:10_000;
      checki "healthy op" (Engine.us 20) (Engine.now () - t0);
      Disk.set_fail_slow d (Disk.Degrade { factor = 3.0 });
      let t1 = Engine.now () in
      Disk.write d ~bytes:10_000;
      checki "degraded op is factor x slower" (Engine.us 60)
        (Engine.now () - t1);
      Disk.set_fail_slow d Disk.Healthy;
      let t2 = Engine.now () in
      Disk.write d ~bytes:10_000;
      checki "healed" (Engine.us 20) (Engine.now () - t2))

let test_disk_stutter () =
  Engine.run (fun () ->
      let d = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:0.0 () in
      Disk.set_fail_slow d
        (Disk.Stutter { period = Engine.ms 1; stall = Engine.us 500 });
      (* Inside the first period: normal service. *)
      let t0 = Engine.now () in
      Disk.write d ~bytes:0;
      checki "pre-stall op healthy" (Engine.us 10) (Engine.now () - t0);
      (* Cross the period boundary: the next op to start pays the stall. *)
      Engine.sleep (Engine.us 1200);
      let t1 = Engine.now () in
      Disk.write d ~bytes:0;
      checki "stalled op pays the pause" (Engine.us 510) (Engine.now () - t1);
      (* Immediately after a stall: healthy again until the next period. *)
      let t2 = Engine.now () in
      Disk.write d ~bytes:0;
      checki "post-stall op healthy" (Engine.us 10) (Engine.now () - t2))

(* --- Flushed store --- *)

let test_flushed_store_async_drain () =
  Engine.run (fun () ->
      let disk = Disk.create ~base_latency:(Engine.us 50) ~ns_per_byte:0.0 () in
      let s = Flushed_store.create ~disk () in
      let t0 = Engine.now () in
      for i = 0 to 9 do
        Flushed_store.append s ~pos:i ~size:1000 i
      done;
      (* appends are memory-speed: no disk latency in the caller *)
      checkb "fast appends" true (Engine.now () - t0 < Engine.us 1);
      checkb "dirty" true (Flushed_store.dirty_bytes s > 0);
      Flushed_store.flush_wait s;
      checki "drained" 0 (Flushed_store.dirty_bytes s);
      Alcotest.(check (option int)) "readable" (Some 5)
        (Flushed_store.read s ~pos:5))

let test_flushed_store_backpressure () =
  Engine.run (fun () ->
      let disk = Disk.create ~base_latency:(Engine.us 100) ~ns_per_byte:0.0 () in
      let s = Flushed_store.create ~disk ~dirty_limit_bytes:1_000 () in
      let t0 = Engine.now () in
      (* First append fills the dirty buffer; the next must wait for the
         device. *)
      Flushed_store.append s ~pos:0 ~size:1_000 0;
      Flushed_store.append s ~pos:1 ~size:1_000 1;
      checkb "second append backpressured" true
        (Engine.now () - t0 >= Engine.us 100))

let test_flushed_store_truncate_rewrite () =
  Engine.run (fun () ->
      let disk = Disk.create () in
      let s = Flushed_store.create ~disk () in
      Flushed_store.append s ~pos:0 ~size:10 "old0";
      Flushed_store.append s ~pos:1 ~size:10 "old1";
      Flushed_store.truncate s 1;
      Flushed_store.append s ~pos:1 ~size:10 "new1";
      Flushed_store.flush_wait s;
      Alcotest.(check (option string)) "rewritten" (Some "new1")
        (Flushed_store.read s ~pos:1);
      Alcotest.(check (list (pair int string)))
        "entries"
        [ (0, "old0"); (1, "new1") ]
        (Flushed_store.entries s))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "mem_log",
        [
          Alcotest.test_case "basic" `Quick test_mem_log_basic;
          Alcotest.test_case "trim/truncate" `Quick test_mem_log_trim_truncate;
          Alcotest.test_case "hash-colliding keys distinct" `Quick
            test_mem_log_hash_collision;
        ]
        @ qc [ prop_mem_log_matches_map ] );
      ( "itbl",
        [
          Alcotest.test_case "hash-colliding keys distinct" `Quick
            test_itbl_hash_collision;
          Alcotest.test_case "rid pack round-trip and range" `Quick
            test_rid_packing;
        ]
        @ qc [ prop_itbl_matches_map ] );
      ( "alloc",
        [
          Alcotest.test_case "mem_log steady-state set" `Quick
            test_mem_log_set_words;
          Alcotest.test_case "mem_log fill 100 logs" `Quick
            test_mem_log_fill_words;
          Alcotest.test_case "itbl find/replace/reinsert cycle" `Quick
            test_itbl_cycle_words;
          Alcotest.test_case "rid_tbl find/replace/reinsert cycle" `Quick
            test_rid_tbl_cycle_words;
        ] );
      ( "ring_buffer",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "grows past its capacity" `Quick test_ring_grows;
        ]
        @ qc [ prop_ring_matches_model ] );
      ( "disk",
        [
          Alcotest.test_case "serializes" `Quick test_disk_serializes;
          Alcotest.test_case "counters" `Quick test_disk_counters;
          Alcotest.test_case "fail-slow degrade" `Quick test_disk_degrade;
          Alcotest.test_case "fail-slow stutter" `Quick test_disk_stutter;
        ] );
      ( "flushed_store",
        [
          Alcotest.test_case "async drain" `Quick test_flushed_store_async_drain;
          Alcotest.test_case "backpressure" `Quick
            test_flushed_store_backpressure;
          Alcotest.test_case "truncate then rewrite" `Quick
            test_flushed_store_truncate_rewrite;
        ] );
    ]
