(* Items and blocked receivers both live in intrusive slab lists (head /
   tail node indices into the per-domain {!Slab}), so send/recv allocate
   nothing in steady state — the previous [Queue.t] representation paid a
   minor-heap cell per message and per waiter, which dominates at 10^6
   parked producers. FIFO order of both lists is unchanged.

   A mailbox may instead have one callback consumer (the RPC demux): a
   preallocated closure that drains with {!ready}/{!take} and parks with
   {!park_consumer} when it finds nothing. A send to the parked consumer
   stores the message in the [slot] and schedules the closure at the
   current instant — the [schedule_cell] call a woken receiver's
   [Engine.wake] makes — so the message is handed over exactly as a value
   passed to a woken waker is: later sends queue behind it, and {!clear}
   does not drop it. *)
type 'a t = {
  mutable ihead : int;
  mutable itail : int;
  mutable ilen : int;
  mutable whead : int;
  mutable wtail : int;
  mutable consumer : unit -> unit;
  mutable parked : bool;
  mutable handed : bool; (* [slot] holds a handed-over message *)
  mutable slot : Obj.t;
}

let unit_obj = Obj.repr 0
let no_consumer () = ()

let create () =
  {
    ihead = Slab.nil;
    itail = Slab.nil;
    ilen = 0;
    whead = Slab.nil;
    wtail = Slab.nil;
    consumer = no_consumer;
    parked = false;
    handed = false;
    slot = unit_obj;
  }

(* Deliver [v] to the first waiter that has not already been woken (e.g. by
   a timeout); returns false when no live waiter remains. Dead waiters'
   nodes are freed here, lazily, exactly when the old queue dropped them. *)
let rec deliver_to_waiter : 'a. 'a t -> 'a -> bool =
 fun t v ->
  if t.whead < 0 then false
  else begin
    let n = t.whead in
    let w : 'a option Engine.waker = Obj.obj (Slab.get n) in
    t.whead <- Slab.next n;
    if t.whead < 0 then t.wtail <- Slab.nil;
    Slab.free n;
    if Engine.wake w (Some v) then true else deliver_to_waiter t v
  end

let send t v =
  if t.parked then begin
    t.parked <- false;
    t.handed <- true;
    t.slot <- Obj.repr v;
    Engine.call_at (Engine.now ()) t.consumer
  end
  else if not (deliver_to_waiter t v) then begin
    let n = Slab.alloc (Obj.repr v) in
    if t.itail < 0 then t.ihead <- n else Slab.set_next t.itail n;
    t.itail <- n;
    t.ilen <- t.ilen + 1
  end

(* Pop the head of a non-empty item list. *)
let pop_item t =
  let n = t.ihead in
  let v = Obj.obj (Slab.get n) in
  t.ihead <- Slab.next n;
  if t.ihead < 0 then t.itail <- Slab.nil;
  Slab.free n;
  t.ilen <- t.ilen - 1;
  v

let take_item t = if t.ihead < 0 then None else Some (pop_item t)

let park t w =
  let n = Slab.alloc (Obj.repr w) in
  if t.wtail < 0 then t.whead <- n else Slab.set_next t.wtail n;
  t.wtail <- n

(* Fiber receivers and a callback consumer would race for the same
   messages, so receiving from a consumer's mailbox is refused. *)
let no_receivers_with_consumer t fn =
  if t.consumer != no_consumer then
    invalid_arg (fn ^ ": the mailbox has a callback consumer")

let recv t =
  no_receivers_with_consumer t "Mailbox.recv";
  match take_item t with
  | Some v -> v
  | None -> (
    match Engine.suspend (fun w -> park t w) with
    | Some v -> v
    | None -> assert false)

let recv_timeout t ~timeout =
  no_receivers_with_consumer t "Mailbox.recv_timeout";
  match take_item t with
  | Some v -> Some v
  | None ->
    Engine.suspend (fun w ->
        park t w;
        (* the deadline cell is cancelled automatically when a send wakes
           this waiter first — no dead timer left in the wheel *)
        Engine.arm_timeout w timeout None)

let try_recv t =
  no_receivers_with_consumer t "Mailbox.try_recv";
  take_item t

let length t = t.ilen

let clear t =
  let c = ref t.ihead in
  while !c >= 0 do
    let next = Slab.next !c in
    Slab.free !c;
    c := next
  done;
  t.ihead <- Slab.nil;
  t.itail <- Slab.nil;
  t.ilen <- 0

let set_consumer t f =
  if t.consumer != no_consumer then
    invalid_arg "Mailbox.set_consumer: the mailbox already has a consumer";
  t.consumer <- f

let park_consumer t =
  if t.handed || t.ihead >= 0 then
    invalid_arg "Mailbox.park_consumer: messages are waiting";
  t.parked <- true

let ready t = t.handed || t.ihead >= 0

let take t =
  if t.handed then begin
    let v = Obj.obj t.slot in
    t.handed <- false;
    t.slot <- unit_obj;
    v
  end
  else if t.ihead < 0 then invalid_arg "Mailbox.take: empty"
  else pop_item t
