(* Host-clock probes: process CPU time, allocation, and GC spans read
   back from the runtime's own event ring ([Runtime_events]). *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated so far: minor + major - promoted (promoted words were
   counted once in the minor heap already). *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

type snap = {
  s_cpu : float;
  s_wall : float;
  s_words : float;
  s_minor : int;
  s_events : int;
  s_fibers : int;
  s_cancelled : int;
}

let snap () =
  {
    s_cpu = cpu ();
    s_wall = Unix.gettimeofday ();
    s_words = words ();
    s_minor = minor_collections ();
    s_events = Ll_sim.Engine.events_executed ();
    s_fibers = Ll_sim.Engine.fiber_count ();
    s_cancelled = Ll_sim.Engine.timers_cancelled ();
  }

(* GC time as the union of minor-collection and major-slice spans.
   Started only by traced runs. The ring keeps its default size and is
   drained at every slice edge of the window; lost events void the
   figure. (A ring enlarged with OCAMLRUNPARAM=e=22 made read_poll spin
   for minutes under OCaml 5.1.1.) *)
module Gc_spans = struct
  type t = {
    cursor : Runtime_events.cursor;
    cb : Runtime_events.Callbacks.t;
    mutable depth : int;
    mutable began : int64;
    mutable total_ns : int64;
    mutable slices : int;
    mutable lost : int;
  }

  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let create () =
    Runtime_events.start ();
    let rec t =
      lazy
        {
          cursor = Runtime_events.create_cursor None;
          cb =
            Runtime_events.Callbacks.create
              ~runtime_begin:(fun _ ts phase ->
                let t = Lazy.force t in
                if counted phase then begin
                  if t.depth = 0 then t.began <- Runtime_events.Timestamp.to_int64 ts;
                  t.depth <- t.depth + 1;
                  if phase = Runtime_events.EV_MAJOR_SLICE then
                    t.slices <- t.slices + 1
                end)
              ~runtime_end:(fun _ ts phase ->
                let t = Lazy.force t in
                if counted phase && t.depth > 0 then begin
                  t.depth <- t.depth - 1;
                  if t.depth = 0 then
                    t.total_ns <-
                      Int64.add t.total_ns
                        (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t.began)
                end)
              ~lost_events:(fun _ n ->
                let t = Lazy.force t in
                t.lost <- t.lost + n)
              ();
          depth = 0;
          began = 0L;
          total_ns = 0L;
          slices = 0;
          lost = 0;
        }
    in
    Lazy.force t

  let poll t = ignore (Runtime_events.read_poll t.cursor t.cb None : int)

  (* Drain what happened so far and start counting afresh. *)
  let restart t =
    poll t;
    t.depth <- 0;
    t.total_ns <- 0L;
    t.slices <- 0;
    t.lost <- 0

  type reading = { gc_ns : float; major_slices : int; lost : int }

  let read t =
    poll t;
    { gc_ns = Int64.to_float t.total_ns; major_slices = t.slices; lost = t.lost }
end

(* The reference kernel: a fixed, allocation-free computation that does
   not depend on the code under test (pseudo-random read-modify-writes
   over a 4 MB buffer outside the OCaml heap). The host's speed drifts by
   a third within minutes (sibling load, frequency); timing the kernel
   right beside each measurement lets host-time metrics be scaled to the
   speed at which the kernel takes [kernel_nominal_s]. Callers keep its
   CPU out of what they measure. A 32 MB variant tracked the simulator as
   well on average but had whole runs where it alone ran twice as slow. *)
let kernel_nominal_s = 0.8e-3

let kernel_words = 1 lsl 19
let kernel_buf = Bigarray.(Array1.create int c_layout kernel_words)
let () = Bigarray.Array1.fill kernel_buf 0

let kernel () =
  let c0 = cpu () in
  let a = kernel_buf in
  let x = ref 1 in
  for i = 0 to 100_000 do
    x := ((!x * 1103515245) + 12345) land (kernel_words - 1);
    Bigarray.Array1.unsafe_set a !x
      (Bigarray.Array1.unsafe_get a (i land 65535) + i)
  done;
  cpu () -. c0

(* [v] (host seconds or a rate of them) as it would read on the nominal
   host, given the kernel time measured beside it. *)
let normalize v ~kernel = v *. kernel_nominal_s /. kernel
