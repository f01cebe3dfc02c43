include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Fibonacci hashing: the top bits of [k * odd constant]. *)
  let hash k = (k * 0x1E3779B97F4A7C15) lsr 32
end)
