module Context = Ace_fhe.Context
module Crt = Ace_rns.Crt
open Ace_ir

exception Bad_scales of string

(* Abstract state per ciphertext/plaintext value: (scale, modulus level,
   limb count). The lattice is flat — the lowering annotates every node
   with exact values, so the interpreter re-derives each node's state from
   its operands' annotations and any disagreement is a miscompile. Limb
   count is level + 1 by construction (chain indices 0..level); tracking
   it separately catches annotations outside the chain, where the runtime
   would index past the CRT basis. *)

let close a b = abs_float (a -. b) /. (abs_float b +. 1e-300) < 1e-6

let diagnose ~pass ?plan ctx f =
  let c = Diagnostic.collector ~pass ~level:(Irfunc.level f) in
  let report kind ?node fmt = Diagnostic.report c kind ?node fmt in
  if Irfunc.level f <> Level.Ckks then begin
    report Diagnostic.Level_violation "ckks check on a %s-level function"
      (Level.to_string (Irfunc.level f));
    Diagnostic.finish c
  end
  else begin
    let crt = Context.crt ctx in
    let delta = Context.scale ctx in
    let chain = Context.max_level ctx in
    let slots = Context.slots ctx in
    let num = Irfunc.num_nodes f in
    (* Consumers of a hoisted bundle: only [C_batch_get] may read one. *)
    let is_batch = Array.make num false in
    Irfunc.iter f (fun n ->
        match n.Irfunc.op with
        | Op.C_rotate_batch _ -> is_batch.(n.Irfunc.id) <- true
        | _ -> ());
    let step_known k =
      match plan with
      | None -> true
      | Some p -> k = 0 || List.mem k p.Keygen_plan.rotation_steps
    in
    Irfunc.iter f (fun n ->
        let id = n.Irfunc.id in
        let a i = Irfunc.node f n.Irfunc.args.(i) in
        let is_cipher (m : Irfunc.node) = Types.is_ciphertext m.Irfunc.ty in
        (* Range of the annotation itself, before deriving anything from
           it: a level outside [0, chain] indexes past the CRT basis. *)
        let carries_state =
          Types.is_ciphertext n.Irfunc.ty
          || (match n.Irfunc.op with Op.C_encode | Op.C_encode_pair -> true | _ -> false)
        in
        if carries_state then begin
          if n.Irfunc.node_level < 0 then
            report Diagnostic.Level_mismatch ~node:id "%s: level annotation missing (%d)"
              (Op.name n.Irfunc.op) n.Irfunc.node_level
          else if n.Irfunc.node_level > chain then
            report Diagnostic.Limb_mismatch ~node:id
              "%s: %d limbs exceed the %d-limb chain (level %d > %d)" (Op.name n.Irfunc.op)
              (n.Irfunc.node_level + 1) (chain + 1) n.Irfunc.node_level chain;
          if not (n.Irfunc.scale > 0.0) then
            report Diagnostic.Scale_mismatch ~node:id "%s: non-positive scale"
              (Op.name n.Irfunc.op)
        end;
        (* Hoisted-bundle discipline. *)
        (match n.Irfunc.op with
        | Op.C_rotate_batch steps ->
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun k ->
              if Hashtbl.mem seen k then
                report Diagnostic.Batch_aliasing ~node:id
                  "rotate_batch lists step %d twice: two batch slots alias one rotation" k
              else Hashtbl.add seen k ())
            steps;
          if Array.length n.Irfunc.args = 1 && is_batch.(n.Irfunc.args.(0)) then
            report Diagnostic.Batch_aliasing ~node:id
              "rotate_batch source %%%d is itself a bundle" n.Irfunc.args.(0)
        | Op.C_batch_get i when Array.length n.Irfunc.args = 1 ->
          if not is_batch.(n.Irfunc.args.(0)) then
            report Diagnostic.Batch_aliasing ~node:id
              "batch_get reads %%%d, which is %s, not a rotate_batch bundle" n.Irfunc.args.(0)
              (Op.name (a 0).Irfunc.op)
          else begin
            match (a 0).Irfunc.op with
            | Op.C_rotate_batch steps when i < 0 || i >= Array.length steps ->
              report Diagnostic.Batch_aliasing ~node:id
                "batch_get index %d out of range for a %d-step bundle" i (Array.length steps)
            | _ -> ()
          end
        | _ ->
          Array.iter
            (fun arg ->
              if arg >= 0 && arg < num && is_batch.(arg) then
                report Diagnostic.Batch_aliasing ~node:id
                  "%s reads bundle %%%d directly; only batch_get may" (Op.name n.Irfunc.op)
                  arg)
            n.Irfunc.args);
        (* Keygen-plan membership: a rotation step with no planned Galois
           key would only surface at execution time, as
           [Eval.Missing_rotation_key]. *)
        (match n.Irfunc.op with
        | Op.C_rotate k when not (step_known k) ->
          report Diagnostic.Missing_rotation_key ~node:id
            "rotation step %d has no key in the keygen plan" k
        | Op.C_rotate_batch steps ->
          Array.iter
            (fun k ->
              if not (step_known k) then
                report Diagnostic.Missing_rotation_key ~node:id
                  "hoisted rotation step %d has no key in the keygen plan" k)
            steps
        | _ -> ());
        (* The transfer function: expected (scale, level) from the
           operands' annotations, mirroring the lowering's own abstract
           interpretation (Lower_sihe). *)
        let expect =
          try
            match n.Irfunc.op with
            | Op.Param _ -> Some (delta, chain)
            | Op.C_encode | Op.C_encode_pair ->
              (* Scale is the encoder's free choice; slot capacity is not. *)
              (match (a 0).Irfunc.ty with
              | Types.Vec len when len > slots ->
                report Diagnostic.Slot_mismatch ~node:id
                  "encode of a %d-element vector into %d slots" len slots
              | _ -> ());
              None
            | Op.C_add | Op.C_sub ->
              let x = a 0 and y = a 1 in
              if x.Irfunc.node_level <> y.Irfunc.node_level then
                report Diagnostic.Level_mismatch ~node:id
                  "%s level mismatch: %d vs %d"
                  (if is_cipher y then "add" else "add-plain")
                  x.Irfunc.node_level y.Irfunc.node_level;
              if not (close x.Irfunc.scale y.Irfunc.scale) then
                report Diagnostic.Scale_mismatch ~node:id
                  "%s scale mismatch: 2^%.3f vs 2^%.3f"
                  (if is_cipher y then "add" else "add-plain")
                  (Float.log2 x.Irfunc.scale) (Float.log2 y.Irfunc.scale);
              Some (x.Irfunc.scale, x.Irfunc.node_level)
            | Op.C_mul ->
              let x = a 0 and y = a 1 in
              if x.Irfunc.node_level <> y.Irfunc.node_level then
                report Diagnostic.Level_mismatch ~node:id "mul level mismatch: %d vs %d"
                  x.Irfunc.node_level y.Irfunc.node_level;
              if x.Irfunc.node_level < 1 then
                report Diagnostic.Level_mismatch ~node:id
                  "mul at level %d: no prime left to rescale away" x.Irfunc.node_level;
              Some (x.Irfunc.scale *. y.Irfunc.scale, x.Irfunc.node_level)
            | Op.C_relin | Op.C_neg | Op.C_rotate _ | Op.C_rotate_batch _ | Op.C_batch_get _
            | Op.C_conj | Op.C_mul_i ->
              Some ((a 0).Irfunc.scale, (a 0).Irfunc.node_level)
            | Op.C_rescale ->
              let x = a 0 in
              if x.Irfunc.node_level < 1 then begin
                report Diagnostic.Level_mismatch ~node:id
                  "rescale at level %d: nothing to drop" x.Irfunc.node_level;
                None
              end
              else if x.Irfunc.node_level > chain then None (* already reported *)
              else begin
                let q = float_of_int (Crt.modulus crt x.Irfunc.node_level) in
                Some (x.Irfunc.scale /. q, x.Irfunc.node_level - 1)
              end
            | Op.C_mod_switch ->
              let x = a 0 in
              if x.Irfunc.node_level < 1 then begin
                report Diagnostic.Level_mismatch ~node:id
                  "modswitch at level %d: nothing to drop" x.Irfunc.node_level;
                None
              end
              else Some (x.Irfunc.scale, x.Irfunc.node_level - 1)
            | Op.C_upscale r -> Some ((a 0).Irfunc.scale *. r, (a 0).Irfunc.node_level)
            | Op.C_downscale r -> Some ((a 0).Irfunc.scale /. r, (a 0).Irfunc.node_level)
            | Op.C_bootstrap target ->
              if target < 1 || target > chain then begin
                report Diagnostic.Bootstrap_range ~node:id
                  "bootstrap target level %d outside [1, %d]" target chain;
                None
              end
              else Some (delta, target)
            | _ -> None
          with ex ->
            report Diagnostic.Type_mismatch ~node:id "transfer function failed: %s"
              (Printexc.to_string ex);
            None
        in
        match expect with
        | None -> ()
        | Some (s, l) ->
          if not (close s n.Irfunc.scale) then
            report Diagnostic.Scale_mismatch ~node:id
              "%s: scale annotated 2^%.3f, derived 2^%.3f" (Op.name n.Irfunc.op)
              (Float.log2 n.Irfunc.scale) (Float.log2 s);
          if l <> n.Irfunc.node_level then
            report Diagnostic.Level_mismatch ~node:id
              "%s: level annotated %d, derived %d" (Op.name n.Irfunc.op) n.Irfunc.node_level
              l);
    (* A bundle is an internal value: it must not escape as a return, and
       neither may a degree-2 ciphertext — decryption handles (c0, c1)
       only, so lazy relinearisation must have closed every output. *)
    List.iter
      (fun r ->
        if r >= 0 && r < num then begin
          if is_batch.(r) then
            report Diagnostic.Batch_aliasing ~node:r "rotate_batch bundle is returned";
          if Types.equal (Irfunc.node f r).Irfunc.ty Types.Cipher3 then
            report Diagnostic.Type_mismatch ~node:r
              "degree-2 ciphertext is returned; relinearise before output"
        end)
      (Irfunc.returns f);
    Diagnostic.finish c
  end

let check ctx f =
  if Irfunc.level f <> Level.Ckks then invalid_arg "Scale_check.check: not a CKKS function";
  match diagnose ~pass:"scale_check" ctx f with
  | [] -> ()
  | d :: _ -> raise (Bad_scales (Diagnostic.to_string d))

let max_encode_bits f =
  Irfunc.fold f ~init:0.0 ~f:(fun acc n ->
      match n.Irfunc.op with
      | Op.C_encode | Op.C_encode_pair -> max acc (Float.log2 n.Irfunc.scale)
      | _ -> acc)
