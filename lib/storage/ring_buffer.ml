(* Slots hold values as [Obj.t] so that a hole can be told apart from any
   value without boxing each entry in an option (as in [Mem_log]).
   [absent] is a fresh block, physically distinct from every stored
   value. Slot [i] lives at index [i land mask]; the array length is a
   power of two and at least [tail - head]. *)

let absent : Obj.t = Obj.repr (ref ())

type 'a t = {
  mutable slots : Obj.t array;
  mutable mask : int;
  mutable head : int;
  mutable tail : int;
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Ring_buffer.create: capacity";
  let n = ref 1 in
  while !n < capacity do
    n := !n * 2
  done;
  { slots = Array.make !n absent; mask = !n - 1; head = 0; tail = 0 }

let head t = t.head
let tail t = t.tail
let length t = t.tail - t.head

let grow t =
  let n = 2 * Array.length t.slots in
  let slots = Array.make n absent in
  let mask = n - 1 in
  for i = t.head to t.tail - 1 do
    Array.unsafe_set slots (i land mask)
      (Array.unsafe_get t.slots (i land t.mask))
  done;
  t.slots <- slots;
  t.mask <- mask

let append t v =
  if t.tail - t.head = Array.length t.slots then grow t;
  let i = t.tail in
  Array.unsafe_set t.slots (i land t.mask) (Obj.repr v);
  t.tail <- i + 1;
  i

let find t i =
  if i < t.head || i >= t.tail then raise Not_found;
  let v = Array.unsafe_get t.slots (i land t.mask) in
  if v == absent then raise Not_found else Obj.obj v

let remove t i =
  if i >= t.head && i < t.tail then begin
    Array.unsafe_set t.slots (i land t.mask) absent;
    if i = t.head then begin
      let h = ref (i + 1) in
      while
        !h < t.tail && Array.unsafe_get t.slots (!h land t.mask) == absent
      do
        incr h
      done;
      t.head <- !h
    end
  end

let iter_from t ~from ~max f =
  let slot = ref (if from < t.head then t.head else from) in
  let n = ref 0 in
  while !n < max && !slot < t.tail do
    let v = Array.unsafe_get t.slots (!slot land t.mask) in
    if v != absent then begin
      f (Obj.obj v);
      incr n
    end;
    incr slot
  done;
  !slot

let clear t =
  for i = t.head to t.tail - 1 do
    Array.unsafe_set t.slots (i land t.mask) absent
  done;
  t.head <- t.tail
