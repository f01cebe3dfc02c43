(* Waiters live in an intrusive slab list in FIFO order. The previous
   representation consed waiters onto a [list] and every broadcast paid a
   [List.rev] allocation of the full waiter set — hot on every stable-gp
   advance; draining the slab list head-first wakes in the same FIFO
   order with zero allocation. *)
type t = { mutable whead : int; mutable wtail : int; mutable n : int }

let create () = { whead = Slab.nil; wtail = Slab.nil; n = 0 }

let broadcast t =
  (* Detach the current waiter set first: wakes only schedule resumption
     cells, but any waiter re-parked by a reentrant use must land in a
     fresh list, exactly as the old snapshot-and-reverse did. *)
  let c = ref t.whead in
  t.whead <- Slab.nil;
  t.wtail <- Slab.nil;
  t.n <- 0;
  while !c >= 0 do
    let w : bool Engine.waker = Obj.obj (Slab.get !c) in
    let next = Slab.next !c in
    Slab.free !c;
    ignore (Engine.wake w true : bool);
    c := next
  done

let park t w =
  let nd = Slab.alloc (Obj.repr w) in
  if t.wtail < 0 then t.whead <- nd else Slab.set_next t.wtail nd;
  t.wtail <- nd;
  t.n <- t.n + 1

let await t pred =
  while not (pred ()) do
    ignore (Engine.suspend (fun w -> park t w) : bool)
  done

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
              park t w;
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
