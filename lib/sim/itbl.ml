(* One flat array of slots, key and value interleaved: slot [i] keeps its
   key at [2i] and its value at [2i + 1], so a probe touches one cache
   line and an insert allocates nothing. An empty slot holds [empty] in
   both cells. Keys are ints, never blocks, so [empty] is physically
   distinct from every key; storing it in the value cell too lets the GC
   drop a removed value at once.

   Linear probing from the key's home slot; deletion shifts the rest of
   the probe run back over the hole, so there are no tombstones and a
   lookup stops at the first empty slot. *)

let empty : Obj.t = Obj.repr (ref ())

type 'a t = {
  mutable data : Obj.t array;
  mutable mask : int;  (* slots - 1; slots is a power of two *)
  mutable size : int;
}

(* Slots at [create] and after [reset]: most tables stay small, and many
   exist (four per client endpoint). *)
let init_slots = 4

(* Fibonacci hashing: the slot is the low bits of the high half of
   [k * odd constant]. Every key bit below 32 reaches every slot bit; a
   key bit [b >= 32] reaches slot bits [>= b - 32] only. *)
let hash k = (k * 0x1E3779B97F4A7C15) lsr 32
let home t k = hash k land t.mask

let alloc t slots =
  t.data <- Array.make (2 * slots) empty;
  t.mask <- slots - 1

let create () =
  { data = Array.make (2 * init_slots) empty; mask = init_slots - 1; size = 0 }

let length t = t.size

(* The slot holding [key], or [-1]: probes from [i] to the first empty
   slot. Top-level with every argument passed, so a lookup builds no
   closure. *)
let rec probe data mask key i =
  let s = Array.unsafe_get data (2 * i) in
  if s == key then i
  else if s == empty then -1
  else probe data mask key ((i + 1) land mask)

let slot t k = probe t.data t.mask (Obj.repr k) (home t k)

let value t i = Obj.obj (Array.unsafe_get t.data ((2 * i) + 1))

let find t k =
  let i = slot t k in
  if i < 0 then raise Not_found else value t i

let find_opt t k =
  let i = slot t k in
  if i < 0 then None else Some (value t i)

let mem t k = slot t k >= 0

(* Puts [k] in the first empty slot of its probe run from [i]; [k] is
   absent and the table has room. *)
let rec insert data mask k v i =
  if Array.unsafe_get data (2 * i) == empty then begin
    Array.unsafe_set data (2 * i) (Obj.repr k);
    Array.unsafe_set data ((2 * i) + 1) v
  end
  else insert data mask k v ((i + 1) land mask)

let resize t slots =
  let old = t.data in
  alloc t slots;
  for i = 0 to (Array.length old / 2) - 1 do
    let k = Array.unsafe_get old (2 * i) in
    if k != empty then
      insert t.data t.mask k
        (Array.unsafe_get old ((2 * i) + 1))
        (home t (Obj.obj k))
  done

let replace t k v =
  let i = slot t k in
  if i >= 0 then Array.unsafe_set t.data ((2 * i) + 1) (Obj.repr v)
  else begin
    if 4 * (t.size + 1) > 3 * (t.mask + 1) then resize t (2 * (t.mask + 1));
    insert t.data t.mask k (Obj.repr v) (home t k);
    t.size <- t.size + 1
  end

(* Backward-shift deletion: walk the run after the hole; an entry whose
   home lies at or before the hole (cyclically) moves into it, and its old
   slot becomes the hole. The first empty slot ends the run. *)
let rec shift_back data mask hole j =
  let kj = Array.unsafe_get data (2 * j) in
  if kj == empty then begin
    Array.unsafe_set data (2 * hole) empty;
    Array.unsafe_set data ((2 * hole) + 1) empty
  end
  else if (j - hash (Obj.obj kj)) land mask >= (j - hole) land mask then begin
    Array.unsafe_set data (2 * hole) kj;
    Array.unsafe_set data ((2 * hole) + 1)
      (Array.unsafe_get data ((2 * j) + 1));
    shift_back data mask j ((j + 1) land mask)
  end
  else shift_back data mask hole ((j + 1) land mask)

let remove t k =
  let i = slot t k in
  if i >= 0 then begin
    shift_back t.data t.mask i ((i + 1) land t.mask);
    t.size <- t.size - 1
  end

let reset t =
  if t.mask + 1 <> init_slots then alloc t init_slots
  else if t.size > 0 then Array.fill t.data 0 (Array.length t.data) empty;
  t.size <- 0

let fold f t acc =
  let data = t.data in
  let acc = ref acc in
  for i = 0 to t.mask do
    let k = Array.unsafe_get data (2 * i) in
    if k != empty then
      acc := f (Obj.obj k) (Obj.obj (Array.unsafe_get data ((2 * i) + 1))) !acc
  done;
  !acc

let iter f t = fold (fun k v () -> f k v) t ()

let max_probe t =
  fold (fun k _ m -> Int.max m (((slot t k - home t k) land t.mask) + 1)) t 0
