open Ace_ir

(* [free.(i)]: the node ids whose value is dead once node [i] has run. *)
type t = { free : int array array }

let free_after t = t.free

(* The cost model: weights are "limbs of pointwise work" — one unit is one
   O(N) pass over a residue row. Calibrated against the telemetry p50s of
   BENCH_pr3 (key_switch 3.6ms at ~8 limbs ~ limbs^2 units of ~50us; add
   0.13ms ~ half a unit). The serving daemon prices requests with it and
   the VM's [calib.*] metrics hold it to measured wall-clock. *)
let node_cost (n : Irfunc.node) =
  let limbs = float_of_int (max 1 (n.Irfunc.node_level + 1)) in
  match n.Irfunc.op with
  | Op.C_relin | Op.C_rotate _ | Op.C_conj ->
    (* gadget decompose: limbs digits x (lift + NTT) per basis row, then
       the mod-down — quadratic in limbs, the dominant runtime op *)
    ((limbs +. 1.0) *. limbs *. 2.0) +. (4.0 *. limbs)
  | Op.C_rotate_batch steps ->
    (* one hoisted decompose (quadratic) + per step: permuted mul-acc over
       the extended basis and one mod-down (linear-ish in limbs) *)
    ((limbs +. 1.0) *. limbs *. 2.0)
    +. (float_of_int (Array.length steps) *. 4.0 *. limbs)
  | Op.C_mul -> 8.0 *. limbs (* 4 NTT-domain tensor products + flips *)
  | Op.C_mul_i -> 1.0 *. limbs (* pointwise monomial product per component *)
  | Op.C_rescale -> 4.0 *. limbs (* coeff flip, exact division, NTT flip *)
  | Op.C_encode | Op.C_encode_pair -> 3.0 *. limbs (* embed + round + forward NTT *)
  | Op.C_upscale _ -> 4.0 *. limbs (* encode ones + mul_plain *)
  | Op.C_add | Op.C_sub | Op.C_neg ->
    (* BENCH_pr8 calibration: calib.add error_ratio_p50 1.578 against the
       key_switch anchor — adds cost more than half a unit once loop
       overhead is charged. *)
    0.8 *. limbs
  | Op.C_mod_switch | Op.C_downscale _ | Op.C_batch_get _ -> 0.05
  | Op.C_bootstrap _ ->
    (* decrypt + decode + encode + encrypt through the oracle. BENCH_pr8
       measured calib.bootstrap error_ratio_p50 0.3945: the oracle costs
       ~0.4x the old 40-unit guess. *)
    16.0 *. limbs
  | Op.Param _ | Op.Weight _ | Op.Const_scalar _ -> 0.0
  | _ -> 0.05 (* surviving cleartext vector ops: host float loops *)

(* The op vocabulary: the [fhe.<op>] metric under which the evaluator
   times the call a node makes, or [None] for nodes that make no timed
   call. A C_mul is ct*ct or ct*pt by its second operand's type; an
   upscale encodes its ones-plaintext (the bulk of its cost) before a
   mult_plain. The VM's [calib.<op>] buckets and [Stats]' mult counts use
   this one map. *)
let fhe_op f (n : Irfunc.node) =
  match n.Irfunc.op with
  | Op.C_add | Op.C_sub -> Some "add"
  | Op.C_mul when Types.is_ciphertext (Irfunc.node f n.Irfunc.args.(1)).Irfunc.ty -> Some "mult"
  | Op.C_mul | Op.C_mul_i -> Some "mult_plain"
  | Op.C_relin -> Some "relinearize"
  | Op.C_rotate _ | Op.C_rotate_batch _ | Op.C_conj -> Some "rotate"
  | Op.C_rescale -> Some "rescale"
  | Op.C_encode | Op.C_encode_pair | Op.C_upscale _ -> Some "encode"
  | Op.C_bootstrap _ -> Some "bootstrap"
  | _ -> None

(* Program order is the execution order, so a value dies right after its
   last consumer runs. Returns are never released. A C_batch_get value is a
   non-owning view into its rotation batch: releasing the batch frees the
   record the view aliases, so the batch lives until the last consumer of
   any of its views, and a returned view pins it. An unused view (no
   consumer, not returned) extends nothing. *)
let sequential f =
  let num = Irfunc.num_nodes f in
  let last_use = Array.make num (-1) in
  Irfunc.iter f (fun n ->
      Array.iter (fun a -> last_use.(a) <- max last_use.(a) n.Irfunc.id) n.Irfunc.args);
  (* max_int = never released; it absorbs the batch extension below. *)
  List.iter (fun r -> last_use.(r) <- max_int) (Irfunc.returns f);
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.C_batch_get _ ->
        let b = n.Irfunc.args.(0) in
        last_use.(b) <- max last_use.(b) last_use.(n.Irfunc.id)
      | _ -> ());
  let free = Array.make num [] in
  for id = 0 to num - 1 do
    let u = last_use.(id) in
    if u >= 0 && u <> max_int then free.(u) <- id :: free.(u)
  done;
  { free = Array.map Array.of_list free }

(* Execution order is program order, whose def-before-use the verifier's
   structural pass already checks; this checks the release lists alone. *)
let check f t =
  let num = Irfunc.num_nodes f in
  if Array.length t.free <> num then
    failwith
      (Printf.sprintf "sched: plan has %d release lists for %d nodes" (Array.length t.free) num);
  let returns = Irfunc.returns f in
  let released_at = Array.make num max_int in
  Array.iteri
    (fun at ids ->
      Array.iter
        (fun id ->
          if id < 0 || id >= num then failwith (Printf.sprintf "sched: bad node id %d" id);
          if List.mem id returns then
            failwith (Printf.sprintf "sched: return %d would be released" id);
          if released_at.(id) <> max_int then
            failwith (Printf.sprintf "sched: node %d released twice" id);
          released_at.(id) <- at)
        ids)
    t.free;
  Irfunc.iter f (fun n ->
      let id = n.Irfunc.id in
      Array.iter
        (fun a ->
          if released_at.(a) < id then
            failwith
              (Printf.sprintf "sched: use-after-free: node %d reads %d released after node %d"
                 id a released_at.(a));
          (* Reading a C_batch_get view transitively reads the batch the
             view indexes into: the batch must survive the reader. *)
          match (Irfunc.node f a).Irfunc.op with
          | Op.C_batch_get _ ->
            let b = (Irfunc.node f a).Irfunc.args.(0) in
            if released_at.(b) < id then
              failwith
                (Printf.sprintf
                   "sched: use-after-free through view: node %d reads view %d of batch %d \
                    released after node %d"
                   id a b released_at.(b))
          | _ -> ())
        n.Irfunc.args);
  List.iter
    (fun r ->
      match (Irfunc.node f r).Irfunc.op with
      | Op.C_batch_get _ ->
        let b = (Irfunc.node f r).Irfunc.args.(0) in
        if released_at.(b) <> max_int then
          failwith
            (Printf.sprintf "sched: batch %d released while its view %d is returned" b r)
      | _ -> ())
    returns
