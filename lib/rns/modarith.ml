let max_modulus_bits = 31

(* Branch-free corrections. ocamlopt emits no conditional move, so an
   [if x >= m then x - m else x] in a per-coefficient loop compiles to a
   data-dependent branch that mispredicts about half the time on uniform
   residues. OCaml ints are 63-bit, so [d asr 62] is all ones when
   [d < 0] and zero otherwise: masking [m] with it adds [m] back exactly
   when the subtraction went negative. *)

let[@inline] csub x m =
  let d = x - m in
  d + (m land (d asr 62))

let[@inline] cadd d m = d + (m land (d asr 62))

let[@inline] center x ~half m = x - (m land ((half - x) asr 62))

let[@inline] add a b ~modulus = csub (a + b) modulus

let[@inline] sub a b ~modulus = cadd (a - b) modulus

let mul a b ~modulus = a * b mod modulus

(* [a lor (-a)] has its sign bit set for every [a <> 0], so the mask
   clears [modulus - a] exactly when [a = 0]. *)
let[@inline] neg a ~modulus = (modulus - a) land ((a lor (-a)) asr 62)

let pow b e ~modulus =
  if e < 0 then invalid_arg "Modarith.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b ~modulus else acc in
      go acc (mul b b ~modulus) (e lsr 1)
    end
  in
  go 1 (b mod modulus) e

let inv a ~modulus =
  if a mod modulus = 0 then invalid_arg "Modarith.inv: zero";
  pow a (modulus - 2) ~modulus

let[@inline] reduce a ~modulus = cadd (a mod modulus) modulus

let[@inline] centered a ~modulus = center a ~half:(modulus / 2) modulus
