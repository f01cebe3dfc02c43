(* A paged position index. A position splits into a page number
   ([pos lsr page_bits]) and a slot; a page is a fixed array of slots, and
   the [absent] sentinel marks empty ones. Pages live in an {!Ll_sim.Itbl}
   (int keys, multiplicative mixing hash), fronted by a one-entry cache
   of the last page touched, so [set]/[get]/[remove] hash nothing on the
   common path and allocate nothing per entry.

   The mixing hash matters: callers key by packed multi-log positions
   ([(log lsl 40) lor pos]), and the polymorphic [Hashtbl.hash] folds the
   high 32 bits onto the low ones, so [1 lsl 40] and [256] collide and
   interleaved logs pile onto the same buckets. Nothing here knows how
   positions are packed: a sparse keyspace just means sparse pages.

   Range operations ([truncate], [trim], [iter]) walk the pages that
   intersect the range in ascending page order, so their cost is the
   number of pages plus the slots of the pages in range, never the width
   of the range. *)

let page_bits = 10
let page_size = 1 lsl page_bits
let slot_mask = page_size - 1

module Pages = Ll_sim.Itbl

(* Slots hold values as [Obj.t] so that an empty slot can be told apart
   from any value without boxing each entry in an option. [absent] is a
   fresh block, physically distinct from every stored value. *)
let absent : Obj.t = Obj.repr (ref ())

(* Stands for "no such page" and for the unset last-page cache. *)
let no_page : Obj.t array = [||]

type 'a t = {
  pages : Obj.t array Pages.t;
  mutable last_no : int;  (* page number of [last_page]; -1 when unset *)
  mutable last_page : Obj.t array;
  mutable first : int;
  mutable next : int;
}

let create () =
  {
    pages = Pages.create ();
    last_no = -1;
    last_page = no_page;
    first = 0;
    next = 0;
  }

let find_page t no =
  if no = t.last_no then t.last_page
  else
    match Pages.find t.pages no with
    | page ->
      t.last_no <- no;
      t.last_page <- page;
      page
    | exception Not_found -> no_page

let page_for_write t no =
  let page = find_page t no in
  if page != no_page then page
  else begin
    let page = Array.make page_size absent in
    Pages.replace t.pages no page;
    t.last_no <- no;
    t.last_page <- page;
    page
  end

let drop_page t no =
  Pages.remove t.pages no;
  if no = t.last_no then begin
    t.last_no <- -1;
    t.last_page <- no_page
  end

let set t pos v =
  if pos < 0 then invalid_arg "Mem_log.set: negative position";
  (* Entries below [first] can never be read back: keep no page for them. *)
  if pos >= t.first then begin
    Array.unsafe_set (page_for_write t (pos lsr page_bits)) (pos land slot_mask)
      (Obj.repr v);
    if pos >= t.next then t.next <- pos + 1
  end

let append t v =
  let pos = t.next in
  set t pos v;
  pos

let get t pos =
  if pos < t.first || pos >= t.next then None
  else
    let page = find_page t (pos lsr page_bits) in
    if page == no_page then None
    else
      let v = Array.unsafe_get page (pos land slot_mask) in
      if v == absent then None else Some (Obj.obj v)

let length t = t.next

let first t = t.first

let remove t pos =
  let page = find_page t (pos lsr page_bits) in
  if page != no_page then Array.unsafe_set page (pos land slot_mask) absent

(* Pages intersecting [lo, hi), with their numbers, in ascending order. *)
let pages_in t ~lo ~hi =
  if lo >= hi then []
  else begin
    let first_no = lo lsr page_bits and last_no = (hi - 1) lsr page_bits in
    Pages.fold
      (fun no page acc ->
        if no >= first_no && no <= last_no then (no, page) :: acc else acc)
      t.pages []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  end

(* Empties [lo, hi): pages wholly inside go, straddling pages are
   cleared slot by slot. *)
let clear_range t ~lo ~hi =
  List.iter
    (fun (no, page) ->
      let base = no lsl page_bits in
      if lo <= base && base + page_size <= hi then drop_page t no
      else
        let from = Int.max lo base and upto = Int.min hi (base + page_size) in
        Array.fill page (from - base) (upto - from) absent)
    (pages_in t ~lo ~hi)

let truncate t n =
  let n = if n < t.first then t.first else n in
  if n < t.next then begin
    clear_range t ~lo:n ~hi:t.next;
    t.next <- n
  end

let trim t n =
  let n = if n > t.next then t.next else n in
  if n > t.first then begin
    clear_range t ~lo:t.first ~hi:n;
    t.first <- n
  end

let iter t ~from f =
  let from = if from < t.first then t.first else from in
  List.iter
    (fun (no, page) ->
      let base = no lsl page_bits in
      for pos = Int.max from base to Int.min t.next (base + page_size) - 1 do
        let v = page.(pos - base) in
        if v != absent then f pos (Obj.obj v)
      done)
    (pages_in t ~lo:from ~hi:t.next)

let to_list t =
  let acc = ref [] in
  iter t ~from:t.first (fun pos v -> acc := (pos, v) :: !acc);
  List.rev !acc
