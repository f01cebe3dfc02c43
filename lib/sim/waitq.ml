(* Waiters live in an intrusive slab list in FIFO order. The previous
   representation consed waiters onto a [list] and every broadcast paid a
   [List.rev] allocation of the full waiter set — hot on every stable-gp
   advance; draining the slab list head-first wakes in the same FIFO
   order with zero allocation.

   A waiter is either a parked fiber's waker or a parked callback
   ({!await_k}). Both kinds share the one list, because the wake order
   across them is part of the schedule; the block tag tells them apart —
   a waker is a record (tag 0), a callback a closure, which may carry
   [Infix_tag] when it is one of several mutually recursive functions. *)
type t = { mutable whead : int; mutable wtail : int; mutable n : int }

let create () = { whead = Slab.nil; wtail = Slab.nil; n = 0 }

let is_callback x =
  let tag = Obj.tag x in
  tag = Obj.closure_tag || tag = Obj.infix_tag

let broadcast t =
  (* Detach the current waiter set first: wakes only schedule resumption
     cells, but any waiter re-parked by a reentrant use must land in a
     fresh list, exactly as the old snapshot-and-reverse did. *)
  let c = ref t.whead in
  t.whead <- Slab.nil;
  t.wtail <- Slab.nil;
  t.n <- 0;
  while !c >= 0 do
    let x = Slab.get !c in
    let next = Slab.next !c in
    Slab.free !c;
    (* A callback is scheduled at the current instant — the same
       [schedule_cell] call a waker's [wake] makes. *)
    if is_callback x then Engine.call_at (Engine.now ()) (Obj.obj x)
    else ignore (Engine.wake (Obj.obj x : bool Engine.waker) true : bool);
    c := next
  done

let park t x =
  let nd = Slab.alloc x in
  if t.wtail < 0 then t.whead <- nd else Slab.set_next t.wtail nd;
  t.wtail <- nd;
  t.n <- t.n + 1

let await t pred =
  while not (pred ()) do
    ignore (Engine.suspend (fun w -> park t (Obj.repr w)) : bool)
  done

(* The callback form of [await]: the retry closure re-checks [pred] in the
   cell a broadcast schedules and re-parks itself while it still fails —
   cell for cell what a fiber looping in [await] does. *)
let await_k t pred k =
  if pred () then k ()
  else begin
    let rec retry () = if pred () then k () else park t (Obj.repr retry) in
    park t (Obj.repr retry)
  end

let await_timeout t ~timeout pred =
  let deadline = Engine.now () + timeout in
  let rec loop () =
    if pred () then true
    else begin
      let remaining = deadline - Engine.now () in
      if remaining <= 0 then pred ()
      else begin
        let woke =
          Engine.suspend (fun w ->
              park t (Obj.repr w);
              (* a broadcast that wins the race cancels this deadline *)
              Engine.arm_timeout w remaining false)
        in
        ignore (woke : bool);
        loop ()
      end
    end
  in
  loop ()

let waiters t = t.n
