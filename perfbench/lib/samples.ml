type t = { mutable data : int array; mutable n : int; mutable sorted : bool }

let create () = { data = [||]; n = 0; sorted = true }

let add t v =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (max 1024 (2 * t.n)) 0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- v;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n
let min_beyond = 10

let rank ~q n =
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  max 0 (min (n - 1) k)

let quantile t ~q =
  if t.n = 0 || t.n - rank ~q t.n - 1 < min_beyond then None
  else begin
    if not t.sorted then begin
      let s = Array.sub t.data 0 t.n in
      Array.sort Int.compare s;
      Array.blit s 0 t.data 0 t.n;
      t.sorted <- true
    end;
    Some t.data.(rank ~q t.n)
  end

let equal a b =
  a.n = b.n
  &&
  let rec go i = i >= a.n || (a.data.(i) = b.data.(i) && go (i + 1)) in
  go 0
