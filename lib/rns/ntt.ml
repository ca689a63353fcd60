(* Butterflies use Shoup multiplication: for a fixed twiddle w modulo q,
   precompute w' = floor(w * 2^31 / q); then
       mulmod(x, w) = x*w - (x*w' >> 31)*q, corrected by one subtraction.
   All products stay below 2^62, inside OCaml's native int. This replaces
   the hardware division of [mod] in the transform's inner loop.

   No per-coefficient loop here branches on data: every correction is a
   [Modarith.csub]/[cadd] mask. ocamlopt emits no conditional move, and
   on uniform residues an [if r >= q] mispredicts about half the time,
   which cost more than the arithmetic it guards. *)

let csub = Modarith.csub
let cadd = Modarith.cadd

type plan = {
  modulus : int;
  n : int;
  log_n : int;
  (* Harvey lazy reduction keeps butterfly values in [0, 4q) and reduces
     once after the last stage. The bound 4q <= 2^31 (so the lazy Shoup
     product x*w' stays under 2^62) restricts it to q <= 2^29; wider
     moduli (the 30-bit special prime) take the exact per-butterfly
     path. Both paths emit canonical residues, so results are
     bit-identical either way. *)
  lazy_ok : bool;
  two_q : int;
  barrett_mu : int;
  barrett_a : int;
  barrett_b : int;
  barrett_wide : bool;
  psi_pows : int array;
  psi_pows_shoup : int array;
  psi_inv_pows : int array;
  psi_inv_pows_shoup : int array;
  omega_stage : int array array;
  omega_stage_shoup : int array array;
  omega_inv_stage : int array array;
  omega_inv_stage_shoup : int array array;
  bitrev : int array;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2i n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let shoup w q = (w lsl 31) / q

let shoup_of q a = Array.map (fun w -> shoup w q) a

(* Integer Barrett reduction of a product p = x*y < q^2, with k the
   bit-width of q (2^(k-1) <= q < 2^k):
       quot = ((p >> a) * mu) >> b,   mu = floor(2^(a+b) / q).
   quot never exceeds p/q, and dropping p's low a bits, truncating mu and
   flooring the product lose less than 2^a/q + p/2^(a+b) + 1 of it, so
   0 <= p - quot*q < (1 + 2^a/q + p/2^(a+b)) * q. The product
   (p >> a) * mu stays below q * 2^b, so b <= 62 - k keeps it inside
   OCaml's 63-bit int.
   - k <= 29 (every chain prime): a = k-3, b = 62-k; 2^a/q <= 1/4 and
     p/2^59 < 1/2, so the remainder is below 2q.
   - k = 30: a = 28, b = 32; below 2.5q.
   - k = 31: a = b = 31 with mu = floor((2^62-1)/q) (equal to
     floor(2^62/q) for odd q); below 4q.
   [barrett_mul] corrects by q, preceded by 2q for k >= 30. Which of the
   two it runs is a branch on the plan, not on data: every element of a
   loop takes the same arm, so it is always predicted. The float-quotient
   variant this replaces lost bits once x*y crossed 2^53, where "off by
   at most one" no longer holds. *)
let barrett_params q =
  let bits =
    let rec go b n = if n = 0 then b else go (b + 1) (n lsr 1) in
    go 0 q
  in
  let a, b =
    if bits <= 29 then (max 0 (bits - 3), 62 - bits) else if bits = 30 then (28, 32) else (31, 31)
  in
  let mu = if a + b = 62 then max_int / q else (1 lsl (a + b)) / q in
  (mu, a, b, bits >= 30)

let[@inline] barrett_mul p x y =
  let prod = x * y in
  let quot = ((prod asr p.barrett_a) * p.barrett_mu) asr p.barrett_b in
  let q = p.modulus in
  let r = prod - (quot * q) in
  if p.barrett_wide then csub (csub r p.two_q) q else csub r q

let make ~modulus ~ring_degree =
  if not (is_pow2 ring_degree) then invalid_arg "Ntt.make: degree not a power of two";
  if (modulus - 1) mod (2 * ring_degree) <> 0 then
    invalid_arg "Ntt.make: modulus not NTT-friendly";
  if modulus >= 1 lsl 31 then invalid_arg "Ntt.make: modulus too wide";
  let n = ring_degree in
  let log_n = log2i n in
  let psi = Primes.root_of_unity ~order:(2 * n) ~modulus in
  let omega = Modarith.mul psi psi ~modulus in
  let pows base =
    let a = Array.make n 1 in
    for i = 1 to n - 1 do
      a.(i) <- Modarith.mul a.(i - 1) base ~modulus
    done;
    a
  in
  let psi_pows = pows psi in
  let psi_inv = Modarith.inv psi ~modulus in
  let n_inv = Modarith.inv n ~modulus in
  let psi_inv_pows =
    let a = pows psi_inv in
    Array.map (fun x -> Modarith.mul x n_inv ~modulus) a
  in
  let omega_stage = Array.make log_n [||] in
  let omega_inv_stage = Array.make log_n [||] in
  let omega_inv = Modarith.inv omega ~modulus in
  for s = 1 to log_n do
    let half = 1 lsl (s - 1) in
    let step = n lsr s in
    let tw = Array.make half 1 and tw_inv = Array.make half 1 in
    let w = Modarith.pow omega step ~modulus in
    let w_inv = Modarith.pow omega_inv step ~modulus in
    for j = 1 to half - 1 do
      tw.(j) <- Modarith.mul tw.(j - 1) w ~modulus;
      tw_inv.(j) <- Modarith.mul tw_inv.(j - 1) w_inv ~modulus
    done;
    omega_stage.(s - 1) <- tw;
    omega_inv_stage.(s - 1) <- tw_inv
  done;
  let bitrev = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = ref 0 and x = ref i in
    for _ = 1 to log_n do
      r := (!r lsl 1) lor (!x land 1);
      x := !x lsr 1
    done;
    bitrev.(i) <- !r
  done;
  let barrett_mu, barrett_a, barrett_b, barrett_wide = barrett_params modulus in
  {
    modulus;
    n;
    log_n;
    lazy_ok = modulus <= 1 lsl 29;
    two_q = 2 * modulus;
    barrett_mu;
    barrett_a;
    barrett_b;
    barrett_wide;
    psi_pows;
    psi_pows_shoup = shoup_of modulus psi_pows;
    psi_inv_pows;
    psi_inv_pows_shoup = shoup_of modulus psi_inv_pows;
    omega_stage;
    omega_stage_shoup = Array.map (shoup_of modulus) omega_stage;
    omega_inv_stage;
    omega_inv_stage_shoup = Array.map (shoup_of modulus) omega_inv_stage;
    bitrev;
  }

let modulus p = p.modulus
let ring_degree p = p.n

let permute_bitrev p a =
  for i = 0 to p.n - 1 do
    let j = p.bitrev.(i) in
    if j > i then begin
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    end
  done

let[@inline] mul_shoup x w w' q =
  let t = (x * w') lsr 31 in
  csub ((x * w) - (t * q)) q

let cyclic_ntt p stages stages_shoup a =
  let q = p.modulus in
  permute_bitrev p a;
  for s = 1 to p.log_n do
    let half = 1 lsl (s - 1) in
    let len = half lsl 1 in
    let tw = stages.(s - 1) and tw' = stages_shoup.(s - 1) in
    let i = ref 0 in
    while !i < p.n do
      let base = !i in
      for j = 0 to half - 1 do
        let u = Array.unsafe_get a (base + j) in
        let x = Array.unsafe_get a (base + j + half) in
        let v = mul_shoup x (Array.unsafe_get tw j) (Array.unsafe_get tw' j) q in
        Array.unsafe_set a (base + j) (csub (u + v) q);
        Array.unsafe_set a (base + j + half) (cadd (u - v) q)
      done;
      i := base + len
    done
  done

(* Harvey-style lazy stage loop: operands live in [0, 4q). Each butterfly
   pays one correction (u -= 2q when u >= 2q) instead of two,
   and the Shoup product skips its correction entirely — for x < 2^31 the
   uncorrected  x*w - ((x*w') >> 31)*q  already lies in [0, 2q). Outputs
   u + v < 4q and u - v + 2q < 4q re-establish the invariant. Callers
   reduce to canonical form once after the last stage. *)
let cyclic_ntt_lazy p stages stages_shoup a =
  let q = p.modulus in
  let q2 = p.two_q in
  permute_bitrev p a;
  for s = 1 to p.log_n do
    let half = 1 lsl (s - 1) in
    let len = half lsl 1 in
    let tw = stages.(s - 1) and tw' = stages_shoup.(s - 1) in
    let i = ref 0 in
    while !i < p.n do
      let base = !i in
      for j = 0 to half - 1 do
        let u = Array.unsafe_get a (base + j) in
        let u = csub u q2 in
        let x = Array.unsafe_get a (base + j + half) in
        let v = (x * Array.unsafe_get tw j) - (((x * Array.unsafe_get tw' j) lsr 31) * q) in
        Array.unsafe_set a (base + j) (u + v);
        Array.unsafe_set a (base + j + half) (u - v + q2)
      done;
      i := base + len
    done
  done

let twist p pows pows' a =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    Array.unsafe_set a i
      (mul_shoup (Array.unsafe_get a i) (Array.unsafe_get pows i) (Array.unsafe_get pows' i) q)
  done

let forward p a =
  twist p p.psi_pows p.psi_pows_shoup a;
  if p.lazy_ok then begin
    cyclic_ntt_lazy p p.omega_stage p.omega_stage_shoup a;
    let q = p.modulus and q2 = p.two_q in
    for i = 0 to p.n - 1 do
      Array.unsafe_set a i (csub (csub (Array.unsafe_get a i) q2) q)
    done
  end
  else cyclic_ntt p p.omega_stage p.omega_stage_shoup a

let inverse p a =
  (* The final twist's exact Shoup multiply is correct for any x < 2^31,
     so it absorbs the [0, 4q) cleanup of the lazy stages for free. *)
  if p.lazy_ok then cyclic_ntt_lazy p p.omega_inv_stage p.omega_inv_stage_shoup a
  else cyclic_ntt p p.omega_inv_stage p.omega_inv_stage_shoup a;
  (* psi_inv_pows carries both the untwist and the 1/n factor. *)
  twist p p.psi_inv_pows p.psi_inv_pows_shoup a

let pointwise_mul p dst a b =
  for i = 0 to p.n - 1 do
    Array.unsafe_set dst i (barrett_mul p (Array.unsafe_get a i) (Array.unsafe_get b i))
  done

(* dst += a * b mod q, in place; the multiply-accumulate at the heart of
   gadget keyswitching. *)
let pointwise_mul_acc p dst a b =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let r = barrett_mul p (Array.unsafe_get a i) (Array.unsafe_get b i) in
    Array.unsafe_set dst i (csub (Array.unsafe_get dst i + r) q)
  done

(* dst += a[perm[i]] * b[i] mod q: the hoisted-rotation inner loop, where
   [perm] is the eval-domain automorphism permutation applied on the fly
   to the shared decomposed digit [a] while accumulating against this
   rotation step's key digit [b]. Fusing the gather into the mul-acc
   avoids materialising a permuted copy of every digit per step. *)
let pointwise_mul_acc_gather p dst a perm b =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let x = Array.unsafe_get a (Array.unsafe_get perm i) in
    let r = barrett_mul p x (Array.unsafe_get b i) in
    Array.unsafe_set dst i (csub (Array.unsafe_get dst i + r) q)
  done

(* Per-element Shoup companions for a fixed eval-domain operand (a key
   digit row): pays the division once at keygen so the keyswitch inner
   loop runs the two-multiply Shoup reduction instead of Barrett. *)
let precompute_shoup p b = shoup_of p.modulus b

let pointwise_mul_acc_shoup p dst a b b' =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let r =
      mul_shoup (Array.unsafe_get a i) (Array.unsafe_get b i) (Array.unsafe_get b' i) q
    in
    Array.unsafe_set dst i (csub (Array.unsafe_get dst i + r) q)
  done

let pointwise_mul_acc_gather_shoup p dst a perm b b' =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let x = Array.unsafe_get a (Array.unsafe_get perm i) in
    let r = mul_shoup x (Array.unsafe_get b i) (Array.unsafe_get b' i) q in
    Array.unsafe_set dst i (csub (Array.unsafe_get dst i + r) q)
  done

(* Exact scalar reduction of any native int into [0, q): used by kernels
   that re-reduce centered digits across primes. *)
let reduce_scalar p v = Modarith.reduce v ~modulus:p.modulus

let negacyclic_convolution p a b =
  let fa = Array.copy a and fb = Array.copy b in
  forward p fa;
  forward p fb;
  pointwise_mul p fa fa fb;
  inverse p fa;
  fa
