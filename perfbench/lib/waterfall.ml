open Lazylog

type stamps = {
  rid : Types.Rid.t;
  invoked : int;
  mutable first_accept : int;
  mutable last_accept : int;
  mutable accepts : int;
  mutable acked : int;
  mutable pos : int;
  mutable bound : int;
  mutable stable : int;
  mutable served : int;
}

type t = {
  recs : (Types.Rid.t, stamps) Hashtbl.t;
  at_pos : (int, stamps) Hashtbl.t;  (* bound, not yet stable *)
  frontiers : (int, int) Hashtbl.t;  (* per-log stable frontier, packed *)
  mutable order : stamps list;  (* newest first *)
  mutable anomalies : int;
  mutable noops : int;
}

let create () =
  {
    recs = Hashtbl.create 4096;
    at_pos = Hashtbl.create 4096;
    frontiers = Hashtbl.create 16;
    order = [];
    anomalies = 0;
    noops = 0;
  }

let unseen = -1

let stamp_once now = function v when v = unseen -> now | v -> v

let advance t ~now gp =
  let log = Logid.log_of gp in
  let from =
    Option.value (Hashtbl.find_opt t.frontiers log) ~default:(Logid.base ~log)
  in
  if gp > from then begin
    Hashtbl.replace t.frontiers log gp;
    for p = from to gp - 1 do
      match Hashtbl.find_opt t.at_pos p with
      | Some s ->
        Hashtbl.remove t.at_pos p;
        s.stable <- now
      | None -> ()
    done
  end

let feed t ~now (ev : Probe.event) =
  match ev with
  | Append_invoked { rid } ->
    let s =
      {
        rid;
        invoked = now;
        first_accept = unseen;
        last_accept = unseen;
        accepts = 0;
        acked = unseen;
        pos = unseen;
        bound = unseen;
        stable = unseen;
        served = unseen;
      }
    in
    if Hashtbl.mem t.recs rid then t.anomalies <- t.anomalies + 1
    else begin
      Hashtbl.replace t.recs rid s;
      t.order <- s :: t.order
    end
  | Replica_accepted { rid; _ } -> (
    match Hashtbl.find_opt t.recs rid with
    | Some s ->
      s.first_accept <- stamp_once now s.first_accept;
      s.last_accept <- now;
      s.accepts <- s.accepts + 1
    | None -> ())
  | Append_acked { rid } -> (
    match Hashtbl.find_opt t.recs rid with
    | Some s when s.acked = unseen -> s.acked <- now
    | _ -> t.anomalies <- t.anomalies + 1)
  | Shard_stored { pos; rid; _ } -> (
    match Hashtbl.find_opt t.recs rid with
    | Some s when s.bound = unseen ->
      s.bound <- now;
      s.pos <- pos;
      Hashtbl.replace t.at_pos pos s
    | Some _ -> t.anomalies <- t.anomalies + 1
    | None -> ())
  | Shard_nooped _ -> t.noops <- t.noops + 1
  | Stable_advanced { gp } -> advance t ~now gp
  | Read_served { rid; _ } -> (
    match Hashtbl.find_opt t.recs rid with
    | Some s -> s.served <- stamp_once now s.served
    | None -> ())
  | _ -> ()

let find t rid = Hashtbl.find_opt t.recs rid
let records t = List.rev t.order
let anomalies t = t.anomalies
let noops t = t.noops

type segment =
  | To_first_accept
  | Accept_spread
  | Accept_to_ack
  | Ack_to_bound
  | Bound_to_stable
  | Stable_to_served

let segments =
  [
    To_first_accept;
    Accept_spread;
    Accept_to_ack;
    Ack_to_bound;
    Bound_to_stable;
    Stable_to_served;
  ]

let ends s = function
  | To_first_accept -> (s.invoked, s.first_accept)
  | Accept_spread -> (s.first_accept, s.last_accept)
  | Accept_to_ack -> (s.last_accept, s.acked)
  | Ack_to_bound -> (s.acked, s.bound)
  | Bound_to_stable -> (s.bound, s.stable)
  | Stable_to_served -> (s.stable, s.served)

let segment s seg =
  match ends s seg with
  | a, b when a = unseen || b = unseen -> None
  | a, b -> Some (b - a)

let complete s = List.for_all (fun seg -> segment s seg <> None) segments

let sum s =
  if complete s then
    Some (List.fold_left (fun acc seg -> acc + Option.get (segment s seg)) 0 segments)
  else None
