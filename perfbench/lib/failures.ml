type t = { calls : int; returned_false : int; shed : int }

let attempted t = t.calls + t.shed
let failed t = t.returned_false + t.shed

let ratio t =
  let a = attempted t in
  if a = 0 then None else Some (float_of_int (failed t) /. float_of_int a)
