module Rns_poly = Ace_rns.Rns_poly

type pt = { poly : Rns_poly.t; pt_scale : float }
type ct = { polys : Rns_poly.t array; ct_scale : float }

let level ct = Rns_poly.num_limbs ct.polys.(0) - 1
let pt_level pt = Rns_poly.num_limbs pt.poly - 1
let size ct = Array.length ct.polys

(* Degree of the decryption polynomial in s: 1 for a fresh (c0, c1) pair,
   2 for an unrelinearised product (c0, c1, c2). Lazy relinearisation
   keeps degree-2 ciphertexts alive through additive regions. *)
let degree ct = size ct - 1
let scale_of ct = ct.ct_scale

(* Liveness hand-off points for the buffer pool: the VM calls [release]
   when Sched's release sets say a ciphertext is dead; anything that makes
   a ciphertext's polynomials visible through a second value calls
   [mark_shared] instead. Both delegate per-polynomial, so mixed states
   (some polys shared, some owned) do the right thing. *)
let release ct = Array.iter Rns_poly.release ct.polys
let mark_shared ct = Array.iter Rns_poly.mark_shared ct.polys

let release_pt pt = Rns_poly.release pt.poly

let poly_bytes ~ring_degree ~limbs = ring_degree * limbs * 8
let ciphertext_bytes ~ring_degree ~limbs = 2 * poly_bytes ~ring_degree ~limbs

let bytes ct =
  let p = ct.polys.(0) in
  Array.length ct.polys
  * poly_bytes ~ring_degree:(Rns_poly.ring_degree p) ~limbs:(Rns_poly.num_limbs p)

let pp fmt ct =
  Format.fprintf fmt "@[ct size=%d level=%d scale=2^%.2f@]" (size ct) (level ct)
    (Float.log2 ct.ct_scale)
