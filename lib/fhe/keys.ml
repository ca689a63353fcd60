module Rns_poly = Ace_rns.Rns_poly
module Modarith = Ace_rns.Modarith
module Crt = Ace_rns.Crt
module Ntt = Ace_rns.Ntt
module Rng = Ace_util.Rng
module Domain_pool = Ace_util.Domain_pool

type switching_key = {
  digits : (Rns_poly.t * Rns_poly.t) array;
  digits_shoup : (int array array * int array array) array;
}

type t = {
  context : Context.t;
  secret : Rns_poly.t;
  public : Rns_poly.t * Rns_poly.t;
  relin : switching_key;
  galois : (int, switching_key) Hashtbl.t;
}

(* b = -a*s + e over the given limb set, everything in the NTT domain. *)
let rlwe_pair ctx ~chain_idx ~secret ~rng =
  let crt = Context.crt ctx in
  let sigma = (Context.params ctx).Context.error_sigma in
  let a = Rns_poly.sample_uniform crt ~chain_idx rng in
  let e = Rns_poly.to_ntt (Rns_poly.sample_gaussian crt ~chain_idx ~sigma rng) in
  let s = Rns_poly.restrict secret ~chain_idx in
  let b = Rns_poly.add (Rns_poly.neg (Rns_poly.mul a s)) e in
  (b, a)

let switching_key_for t ~s_from ~rng =
  let ctx = t.context in
  let key_idx = Context.key_idx ctx in
  let crt = Context.crt ctx in
  let p = Context.special_modulus ctx in
  let num_digits = Context.max_level ctx + 1 in
  let s_from = Rns_poly.to_ntt (Rns_poly.restrict s_from ~chain_idx:key_idx) in
  (* The digit loop itself stays sequential — each rlwe pair draws from the
     shared rng, and key bits must not depend on the pool size — but the
     per-digit bump over the ring coefficients is data-parallel. *)
  let digits =
    Array.init num_digits (fun i ->
        let b, a = rlwe_pair ctx ~chain_idx:key_idx ~secret:t.secret ~rng in
        (* Add [P]_(q_i) * s_from into limb i of b (pointwise: both are in
           the NTT domain over the same basis). *)
        let q_i = Crt.modulus crt i in
        let factor = Modarith.reduce p ~modulus:q_i in
        let bumped = Rns_poly.clone b in
        let row = bumped.Rns_poly.data.(i) in
        let src = s_from.Rns_poly.data.(i) in
        (* Two multiplies per index: inline below 8K coefficients, where
           pool wake-up would rival the whole loop. *)
        Domain_pool.parallel_for ~min_chunk:8192 (Array.length src) (fun j ->
            row.(j) <- Modarith.add row.(j) (Modarith.mul factor src.(j) ~modulus:q_i) ~modulus:q_i);
        (bumped, a))
  in
  (* Eval-domain precompute: per-element Shoup companions for every key
     row, paid once here so the key-switch multiply-accumulate runs the
     two-multiply Shoup reduction instead of Barrett on every call. *)
  let companions (poly : Rns_poly.t) =
    Array.mapi
      (fun k ci -> Ntt.precompute_shoup (Crt.plan crt ci) poly.Rns_poly.data.(k))
      poly.Rns_poly.chain_idx
  in
  let digits_shoup = Array.map (fun (b, a) -> (companions b, companions a)) digits in
  { digits; digits_shoup }

let galois_of_rotation ctx k =
  let slots = Context.slots ctx in
  let two_n = 4 * slots in
  let k = ((k mod slots) + slots) mod slots in
  Modarith.pow 5 k ~modulus:two_n

let galois_conjugate ctx = (4 * Context.slots ctx) - 1

let secret_automorphism t ~galois =
  Rns_poly.automorphism ~galois (Rns_poly.to_coeff t.secret)

let make_galois_key t ~galois ~rng =
  (* Warm the per-(degree, galois) automorphism caches — in particular the
     eval-domain permutation, whose lazy NTT-probe construction would
     otherwise stall the first rotation that uses this key. *)
  Rns_poly.warm_automorphism (Context.crt t.context) ~galois;
  switching_key_for t ~s_from:(secret_automorphism t ~galois) ~rng

let generate ?secret_hamming ctx ~rng ~rotations =
  let crt = Context.crt ctx in
  let key_idx = Context.key_idx ctx in
  let secret_coeff =
    match secret_hamming with
    | None -> Rns_poly.sample_ternary crt ~chain_idx:key_idx rng
    | Some h -> Rns_poly.sample_sparse_ternary crt ~chain_idx:key_idx ~hamming:h rng
  in
  let secret = Rns_poly.to_ntt secret_coeff in
  let top_idx = Context.ciphertext_idx ctx ~level:(Context.max_level ctx) in
  let public = rlwe_pair ctx ~chain_idx:top_idx ~secret ~rng in
  let t =
    {
      context = ctx;
      secret;
      public;
      relin = { digits = [||]; digits_shoup = [||] };
      galois = Hashtbl.create 16;
    }
  in
  let s_squared = Rns_poly.to_coeff (Rns_poly.mul secret secret) in
  let relin = switching_key_for t ~s_from:s_squared ~rng in
  let t = { t with relin } in
  Hashtbl.replace t.galois (galois_conjugate ctx) (make_galois_key t ~galois:(galois_conjugate ctx) ~rng);
  List.iter
    (fun k ->
      let g = galois_of_rotation ctx k in
      if not (Hashtbl.mem t.galois g) then
        Hashtbl.replace t.galois g (make_galois_key t ~galois:g ~rng))
    rotations;
  (* Prefill the Crt inverse-modulus memo tables every rescale and
     key-switch mod-down will hit. Like the automorphism caches these are
     built lazily on first use; unlike them they are per (num, target)
     pair, so a cold entry lands inside some mid-inference rotation and
     smears its latency. All of them are cheap to enumerate at keygen. *)
  let special_ci = Context.special_chain_idx ctx in
  let max_l = Context.max_level ctx in
  for target = 0 to max_l do
    ignore (Crt.inv_mod crt ~num:special_ci ~target)
  done;
  for num = 1 to max_l do
    for target = 0 to num - 1 do
      ignore (Crt.inv_mod crt ~num ~target)
    done
  done;
  t

let add_rotation t k =
  let g = galois_of_rotation t.context k in
  if not (Hashtbl.mem t.galois g) then begin
    let rng = Rng.create (0x5eed + g) in
    Hashtbl.replace t.galois g (make_galois_key t ~galois:g ~rng)
  end

let rotation_key t k = Hashtbl.find t.galois (galois_of_rotation t.context k)

(* Walk 5^k mod 2N for k = 1..slots-1 with a running product and report
   the steps whose Galois element has a key. Used by the evaluator's
   missing-key diagnostics to name what WOULD have worked. *)
let available_rotations t =
  let slots = Context.slots t.context in
  let two_n = 4 * slots in
  let out = ref [] in
  let g = ref 1 in
  for k = 1 to slots - 1 do
    g := !g * 5 mod two_n;
    if Hashtbl.mem t.galois !g then out := k :: !out
  done;
  List.rev !out

(* One key holds a pair of polynomials over the extended basis (the chain
   plus the special prime) per gadget digit, one digit per chain limb. *)
let switching_key_bytes ctx =
  let digits = Context.max_level ctx + 1 in
  digits * 2
  * Ciphertext.poly_bytes ~ring_degree:(Context.ring_degree ctx) ~limbs:(Context.max_level ctx + 2)

let evaluation_key_bytes t =
  switching_key_bytes t.context * (1 + Hashtbl.length t.galois)

let num_rotation_keys t = Hashtbl.length t.galois
