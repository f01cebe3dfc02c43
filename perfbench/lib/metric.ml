type clock = Sim | Host

type t = { name : string; unit_ : string; clock : clock; value : float option }

let make ~clock ~unit_ name value = { name; unit_; clock; value }
let sim = make ~clock:Sim
let host = make ~clock:Host

let us_of_ns name q =
  sim ~unit_:"us" name (Option.map (fun ns -> float_of_int ns /. 1000.) q)

let ratio num den = if den = 0. then None else Some (num /. den)

(* Shortest decimal that reads back as the same float: every measured
   digit, none invented. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let present ms =
  List.filter_map
    (fun m ->
      match m.value with
      | Some v when Float.is_finite v -> Some (m.name, m.unit_, v)
      | _ -> None)
    ms

let json_object ms =
  present ms
  |> List.map (fun (n, u, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
  |> String.concat ", "
  |> Printf.sprintf "{%s}"

let clock_name = function Sim -> "sim" | Host -> "host"

let block ms clock =
  Printf.sprintf "%S: %s" (clock_name clock)
    (json_object (List.filter (fun m -> m.clock = clock) ms))

let missing ~names ms =
  let have = List.map (fun (n, _, _) -> n) (present ms) in
  List.filter (fun n -> not (List.mem n have)) names

let pick ~names ms =
  List.filter_map (fun n -> List.find_opt (fun m -> m.name = n) ms) names

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (json_object ms)

let render m =
  let v = match m.value with
    | Some v when Float.is_finite v -> number v
    | _ -> "absent"
  in
  Printf.sprintf "  %-36s %18s %-6s" m.name v m.unit_
