module Rns_poly = Ace_rns.Rns_poly
module Modarith = Ace_rns.Modarith
module Crt = Ace_rns.Crt
module Telemetry = Ace_telemetry.Telemetry

let m_bootstrap = Telemetry.metric "fhe.bootstrap"

type config = { taylor_degree : int; double_angles : int }

let default_config = { taylor_degree = 7; double_angles = 6 }

(* C2S: 1 (diagonals) | split re/im: 1 | EvalMod: angle fold 1 + Taylor
   powers ~3 + coefficients 1 + r squarings + Im extraction 1 | merge: 1
   | S2C: 1 *)
let depth_needed cfg = 1 + 1 + (1 + 3 + 1 + cfg.double_angles + 1) + 1 + 1

let required_rotations ctx = List.init (Context.slots ctx - 1) (fun i -> i + 1)

(* ---- ModRaise ---- *)

let mod_raise ctx (ct : Ciphertext.ct) ~level =
  let crt = Context.crt ctx in
  let idx = Context.ciphertext_idx ctx ~level in
  let raise_poly p =
    let p = Rns_poly.to_coeff p in
    if Rns_poly.num_limbs p <> 1 then invalid_arg "Exact_bootstrap: input must be at level 0";
    let q0 = Crt.modulus crt 0 in
    let coeffs = Array.map (fun v -> Modarith.centered v ~modulus:q0) p.Rns_poly.data.(0) in
    Rns_poly.to_ntt (Rns_poly.of_centered_coeffs crt ~chain_idx:idx coeffs)
  in
  { ct with Ciphertext.polys = Array.map raise_poly ct.Ciphertext.polys }

(* ---- homomorphic linear transform (diagonal method) ---- *)

let linear_transform keys (m : Cplx.t array array) (ct : Ciphertext.ct) =
  let ctx = keys.Keys.context in
  let n = Context.slots ctx in
  let level = Ciphertext.level ct in
  let q_l = float_of_int (Crt.modulus (Context.crt ctx) level) in
  let acc = ref None in
  for d = 0 to n - 1 do
    let diag = Array.init n (fun j -> m.(j).((j + d) mod n)) in
    if Array.exists (fun c -> Cplx.norm c > 1e-12) diag then begin
      let rotated = if d = 0 then ct else Eval.rotate keys ct d in
      (* Encode at the level's prime so the rescale returns to the input
         scale exactly (the compiler's own discipline). *)
      let pt = Encoder.encode_complex ctx ~level ~scale:q_l diag in
      let term = Eval.mul_plain rotated pt in
      acc := Some (match !acc with None -> term | Some a -> Eval.add a term)
    end
  done;
  match !acc with
  | None -> invalid_arg "Exact_bootstrap.linear_transform: zero matrix"
  | Some a -> Eval.rescale a

(* Numerically materialise the embedding matrices by probing the slot
   transforms with unit vectors (n is small at bootstrap-test scale).
   Each probe owns its column, so the O(n^2 log n) sweep runs as parallel
   slot batches on the domain pool. *)
let embedding_matrices ctx =
  let n = Context.slots ctx in
  let plan = Context.embed_plan ctx in
  let col transform k =
    let v = Array.make n Cplx.zero in
    v.(k) <- Cplx.make 1.0 0.0;
    transform v;
    v
  in
  let build transform =
    let cols = Ace_util.Domain_pool.init n (fun k -> col transform k) in
    Ace_util.Domain_pool.init n (fun j -> Array.init n (fun k -> cols.(k).(j)))
  in
  (build (Cplx.embed plan) (* S2C: coefficients -> slots *),
   build (Cplx.embed_inv plan) (* C2S: slots -> coefficients *))

(* ---- EvalMod ---- *)

let mul_const keys ct (c : Cplx.t) =
  let ctx = keys.Keys.context in
  let level = Ciphertext.level ct in
  let q_l = float_of_int (Crt.modulus (Context.crt ctx) level) in
  let n = Context.slots ctx in
  let pt = Encoder.encode_complex ctx ~level ~scale:q_l (Array.make n c) in
  Eval.rescale (Eval.mul_plain ct pt)

let add_ciphers keys a b =
  (* Align levels before adding (scales are kept equal by construction). *)
  ignore keys;
  let la = Ciphertext.level a and lb = Ciphertext.level b in
  let a = Eval.mod_switch_to a ~level:(min la lb) in
  let b = Eval.mod_switch_to b ~level:(min la lb) in
  Eval.add a b

let sub_ciphers a b =
  let la = Ciphertext.level a and lb = Ciphertext.level b in
  let a = Eval.mod_switch_to a ~level:(min la lb) in
  let b = Eval.mod_switch_to b ~level:(min la lb) in
  Eval.sub a b

(* exp(i * angle * x) via Taylor of degree d, then r double-angle
   squarings; [x] has real slots. The angle is divided by 2^r and folded
   into the ciphertext {e first} — Taylor coefficients are then 1/k!,
   large enough to survive fixed-point encoding (a coefficient like
   angle^7/7! would round to zero). *)
let eval_exp keys cfg ~angle (x : Ciphertext.ct) =
  let ctx = keys.Keys.context in
  let delta = Context.scale ctx in
  let scaled_angle = angle /. Float.pow 2.0 (float_of_int cfg.double_angles) in
  let u = mul_const keys x (Cplx.make scaled_angle 0.0) in
  (* Powers of u with exact-Delta discipline: square-and-multiply, each
     product rescaled then re-labelled onto the nominal scale ladder. *)
  let powers = Hashtbl.create 8 in
  Hashtbl.add powers 1 u;
  let rec pow k =
    match Hashtbl.find_opt powers k with
    | Some v -> v
    | None ->
      let a = pow (k / 2) and b = pow (k - (k / 2)) in
      let la = Ciphertext.level a and lb = Ciphertext.level b in
      let a = Eval.mod_switch_to a ~level:(min la lb) in
      let b = Eval.mod_switch_to b ~level:(min la lb) in
      let p = Eval.rescale (Eval.relinearize keys (Eval.mul_raw a b)) in
      (* Re-label the Delta^2/q drift (bounded; see DESIGN.md). *)
      let p = { p with Ciphertext.ct_scale = delta } in
      Hashtbl.add powers k p;
      p
  in
  let term k =
    (* coefficient i^k / k! *)
    let rec fact n = if n <= 1 then 1.0 else float_of_int n *. fact (n - 1) in
    let mag = 1.0 /. fact k in
    let c =
      match k mod 4 with
      | 0 -> Cplx.make mag 0.0
      | 1 -> Cplx.make 0.0 mag
      | 2 -> Cplx.make (-.mag) 0.0
      | _ -> Cplx.make 0.0 (-.mag)
    in
    mul_const keys (pow k) c
  in
  let sum = ref (term 1) in
  for k = 2 to cfg.taylor_degree do
    sum := add_ciphers keys !sum (term k)
  done;
  (* + 1 (the k = 0 term) *)
  let one =
    Encoder.encode_complex ctx
      ~level:(Ciphertext.level !sum)
      ~scale:(Ciphertext.scale_of !sum)
      (Array.make (Context.slots ctx) (Cplx.make 1.0 0.0))
  in
  let e = ref (Eval.add_plain !sum one) in
  for _ = 1 to cfg.double_angles do
    let s = Eval.rescale (Eval.relinearize keys (Eval.mul_raw !e !e)) in
    e := { s with Ciphertext.ct_scale = delta }
  done;
  !e

(* (eps / 2pi) * Im(exp(2pi i x / eps)) = eps/(2pi) * sin(2pi x / eps) ~ x mod eps *)
let eval_mod keys cfg ~eps (x : Ciphertext.ct) =
  let e = eval_exp keys cfg ~angle:(2.0 *. Float.pi /. eps) x in
  let conj_e = Eval.conjugate keys e in
  let diff = sub_ciphers e conj_e in
  (* Im(z) = (z - conj z) / 2i; fold in the eps/2pi factor. *)
  mul_const keys diff (Cplx.make 0.0 (-.(eps /. (2.0 *. Float.pi) /. 2.0)))

(* ---- full pipeline ---- *)

let bootstrap ?(config = default_config) keys ~target_level ct =
  Telemetry.record m_bootstrap @@ fun () ->
  let ctx = keys.Keys.context in
  let delta = Context.scale ctx in
  let chain = Context.max_level ctx in
  let work_level = target_level + depth_needed config in
  if work_level > chain then
    invalid_arg
      (Printf.sprintf "Exact_bootstrap: need %d levels above target %d, chain has %d"
         (depth_needed config) target_level chain);
  if Ciphertext.level ct <> 0 then invalid_arg "Exact_bootstrap: bootstrap level-0 inputs";
  let q0 = float_of_int (Crt.modulus (Context.crt ctx) 0) in
  let eps = q0 /. delta in
  (* 1. ModRaise to the working level. *)
  let raised = Eval.mod_switch_to (mod_raise ctx ct ~level:chain) ~level:work_level in
  (* 2. CoeffToSlot. *)
  let s2c_m, c2s_m = embedding_matrices ctx in
  let z = linear_transform keys c2s_m raised in
  (* 3. Separate real and imaginary parts (each carries half the
     coefficients). *)
  let conj_z = Eval.conjugate keys z in
  let re = mul_const keys (add_ciphers keys z conj_z) (Cplx.make 0.5 0.0) in
  let im = mul_const keys (sub_ciphers z conj_z) (Cplx.make 0.0 (-0.5)) in
  (* 4. EvalMod each part. *)
  let re' = eval_mod keys config ~eps re in
  let im' = eval_mod keys config ~eps im in
  (* 5. Recombine: z' = re' + i * im'. *)
  let i_im = mul_const keys im' (Cplx.make 0.0 1.0) in
  let z' = add_ciphers keys re' i_im in
  (* 6. SlotToCoeff. *)
  let out = linear_transform keys s2c_m z' in
  let out = Eval.mod_switch_to out ~level:target_level in
  { out with Ciphertext.ct_scale = delta }
