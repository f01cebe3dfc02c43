(** Hash tables keyed by [int], with a multiplicative mixing hash.

    The record path keys many tables by ints that are far from uniform:
    packed multi-log positions ([(log lsl 40) lor pos]), packed fabric
    links ([(src lsl 20) lor dst]), dense client, token and log ids. The
    polymorphic [Hashtbl.hash] folds the high 32 bits of an int onto the
    low ones, so [1 lsl 40] and [256] land in the same bucket, and every
    lookup pays a generic [caml_hash] and [compare_val]. This table
    multiplies the key by an odd 64-bit constant and keeps the high bits
    of the product (Fibonacci hashing), which spreads every input bit,
    and compares keys with [Int.equal].

    Iteration order ([iter], [fold]) differs from a polymorphic [Hashtbl]
    holding the same bindings. A table whose fold order reaches a message
    or a wake must not switch hash functions without checking that the
    schedule stays the same. *)

include Hashtbl.S with type key = int
