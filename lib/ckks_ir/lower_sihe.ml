module Context = Ace_fhe.Context
module Crt = Ace_rns.Crt
open Ace_ir

type config = {
  context : Context.t;
  lazy_rescale : bool;
  min_level_bootstrap : bool;
}

exception Lowering_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lowering_error s)) fmt

let close a b = abs_float (a -. b) /. b < 1e-9

(* Multiplicative depth still to be consumed after each SIHE node, capped
   at the boundary of the producing operator (backward dataflow over
   provenance segments). A bootstrap target then covers exactly the
   current operator — one convolution, or one whole ReLU polynomial — and
   the next operator re-bootstraps for itself. This is the paper's
   "bootstrap only to the minimal levels needed before the next
   bootstrapping point": convolutions run at level 2-3 where rotations
   are cheap, and each ReLU gets a fresh minimal tower. *)
let depth_to_go src =
  let n = Irfunc.num_nodes src in
  let dtg = Array.make n 0 in
  let consumes (node : Irfunc.node) = match node.Irfunc.op with Op.S_mul -> 1 | _ -> 0 in
  for i = n - 1 downto 0 do
    let node = Irfunc.node src i in
    Array.iter
      (fun a ->
        let producer = Irfunc.node src a in
        let within = producer.Irfunc.origin = node.Irfunc.origin in
        let need = if within then consumes node + dtg.(i) else consumes node in
        dtg.(a) <- max dtg.(a) need)
      node.Irfunc.args
  done;
  dtg

type state = {
  cfg : config;
  src : Irfunc.t;
  dst : Irfunc.t;
  dtg : int array;
  map : int array; (* src id -> current dst id (clear or cipher) *)
  scale : (int, float) Hashtbl.t; (* dst id -> scale (ciphers only) *)
  level : (int, int) Hashtbl.t;
  encode_cache : (int * int * int64, int) Hashtbl.t;
  delta : float;
}

let scale_of st id = Hashtbl.find st.scale id
let level_of st id = Hashtbl.find st.level id

let annotate st id ~scale ~level =
  Hashtbl.replace st.scale id scale;
  Hashtbl.replace st.level id level;
  let n = Irfunc.node st.dst id in
  n.Irfunc.scale <- scale;
  n.Irfunc.node_level <- level

let emit st op args ~scale ~level =
  let ty =
    match op with
    | Op.C_mul -> (
      match (Irfunc.node st.dst args.(1)).Irfunc.ty with
      | Types.Cipher -> Types.Cipher3
      | _ -> Types.Cipher)
    | Op.C_encode -> Types.Plain
    | _ -> Types.Cipher
  in
  let id = Irfunc.add st.dst op args ty in
  if ty <> Types.Plain then annotate st id ~scale ~level
  else begin
    let n = Irfunc.node st.dst id in
    n.Irfunc.scale <- scale;
    n.Irfunc.node_level <- level
  end;
  id

(* The prime consumed when rescaling from [level]. *)
let prime st level =
  if level < 1 then fail "no prime to rescale at level %d" level;
  float_of_int (Crt.modulus (Context.crt st.cfg.context) level)

let rescale st id =
  let l = level_of st id in
  let s = scale_of st id /. prime st l in
  let s = if close s st.delta then st.delta else s in
  emit st Op.C_rescale [| id |] ~scale:s ~level:(l - 1)

(* Rescale until the scale is back near Delta. Tracking stays exact: a
   ct-ct product lands on Delta^2/q_l, slightly off Delta, and stays that
   way — the next plaintext multiplication re-centres it for free by
   encoding its mask at [q * Delta / s]. *)
let rec reduce st id =
  let s = scale_of st id in
  if s < st.delta *. 1.5 then id
  else begin
    let l = level_of st id in
    if l < 1 then fail "cannot reduce scale 2^%.2f at level 0" (Float.log2 s);
    reduce st (rescale st id)
  end

(* Force exactly Delta: rescale down, then re-label any residual ratio
   with an explicit CKKS.downscale (the bounded scale re-interpretation
   every CKKS deployment performs; needed only when two drifted
   ciphertexts meet at an addition). *)
let to_delta st id =
  let id = reduce st id in
  let s = scale_of st id in
  if close s st.delta then id
  else emit st (Op.C_downscale (s /. st.delta)) [| id |] ~scale:st.delta ~level:(level_of st id)

let mod_switch_to st id target =
  let rec go id =
    let l = level_of st id in
    if l < target then fail "mod_switch cannot raise level %d -> %d" l target
    else if l = target then id
    else go (emit st Op.C_mod_switch [| id |] ~scale:(scale_of st id) ~level:(l - 1))
  in
  go id

let bootstrap st id ~target =
  let id = to_delta st id in
  emit st (Op.C_bootstrap target) [| id |] ~scale:st.delta ~level:target

(* Ensure a (normalized) operand can pay for [want] more multiplicative
   levels; bootstrap if it cannot. *)
let ensure_capacity st id ~want =
  let chain = Context.max_level st.cfg.context in
  let l = level_of st id in
  if l >= 1 then id
  else begin
    let target = if st.cfg.min_level_bootstrap then max 1 (min chain want) else chain in
    bootstrap st id ~target
  end

(* Plain operand: the SIHE graph routes it through S_encode(clear); fetch
   the clear node and encode at exactly the requested scale and level. *)
let encode_at st src_plain_id ~scale ~level =
  let enc_node = Irfunc.node st.src src_plain_id in
  let clear_src =
    match enc_node.Irfunc.op with
    | Op.S_encode -> enc_node.Irfunc.args.(0)
    | _ -> fail "plain operand does not come from SIHE.encode"
  in
  let key = (clear_src, level, Int64.bits_of_float scale) in
  match Hashtbl.find_opt st.encode_cache key with
  | Some id -> id
  | None ->
    let id = emit st Op.C_encode [| st.map.(clear_src) |] ~scale ~level in
    Hashtbl.add st.encode_cache key id;
    id

let is_plain_src st id = (Irfunc.node st.src id).Irfunc.ty = Types.Plain

(* Memoize normalization: the rewritten id represents the same value, so
   later uses start from it instead of re-reducing (or re-bootstrapping). *)
let update st src id = st.map.(src) <- id; id

let lower_add_sub st (node : Irfunc.node) op =
  let a_src = node.Irfunc.args.(0) and b_src = node.Irfunc.args.(1) in
  let a = st.map.(a_src) in
  if is_plain_src st b_src then begin
    let p = encode_at st b_src ~scale:(scale_of st a) ~level:(level_of st a) in
    emit st op [| a; p |] ~scale:(scale_of st a) ~level:(level_of st a)
  end
  else begin
    let b = st.map.(b_src) in
    let a, b =
      if close (scale_of st a) (scale_of st b) then (a, b)
      else (update st a_src (to_delta st a), update st b_src (to_delta st b))
    in
    let target = min (level_of st a) (level_of st b) in
    let a = mod_switch_to st a target and b = mod_switch_to st b target in
    emit st op [| a; b |] ~scale:(scale_of st a) ~level:target
  end

let lower_mul st (node : Irfunc.node) =
  let a_src = node.Irfunc.args.(0) and b_src = node.Irfunc.args.(1) in
  let want = 1 + st.dtg.(node.Irfunc.id) in
  if is_plain_src st b_src then begin
    (* cipher x plain: encode the mask at [q_l * Delta / s] so the product
       sits at exactly Delta * q_l and the eventual rescale restores
       Delta — absorbing any drift the operand carried. *)
    let a = update st a_src (ensure_capacity st (reduce st st.map.(a_src)) ~want) in
    let l = level_of st a in
    let enc_scale = prime st l *. st.delta /. scale_of st a in
    let p = encode_at st b_src ~scale:enc_scale ~level:l in
    let prod = emit st Op.C_mul [| a; p |] ~scale:(st.delta *. prime st l) ~level:l in
    if st.cfg.lazy_rescale then prod else rescale st prod
  end
  else begin
    let a = update st a_src (ensure_capacity st (reduce st st.map.(a_src)) ~want) in
    let b =
      if a_src = b_src then a
      else update st b_src (ensure_capacity st (reduce st st.map.(b_src)) ~want)
    in
    let target = min (level_of st a) (level_of st b) in
    let a = mod_switch_to st a target and b = mod_switch_to st b target in
    let prod =
      emit st Op.C_mul [| a; b |] ~scale:(scale_of st a *. scale_of st b) ~level:target
    in
    let rel = emit st Op.C_relin [| prod |] ~scale:(scale_of st prod) ~level:target in
    (* One immediate rescale; the residual Delta^2/q_l drift is tracked
       exactly and corrected by the next plaintext multiplication. *)
    reduce st rel
  end

let lower cfg src =
  if Irfunc.level src <> Level.Sihe then invalid_arg "Lower_sihe.lower: not a SIHE function";
  let params =
    Array.to_list (Irfunc.params src) |> List.map (fun (name, _) -> (name, Types.Cipher))
  in
  let dst = Irfunc.create ~name:(Irfunc.name src) ~level:Level.Ckks ~params in
  List.iter
    (fun c -> Irfunc.add_const dst c ~dims:(Irfunc.const_dims src c) (Irfunc.const src c))
    (Irfunc.const_names src);
  let st =
    {
      cfg;
      src;
      dst;
      dtg = depth_to_go src;
      map = Array.make (Irfunc.num_nodes src) (-1);
      scale = Hashtbl.create 256;
      level = Hashtbl.create 256;
      encode_cache = Hashtbl.create 256;
      delta = Context.scale cfg.context;
    }
  in
  let chain = Context.max_level cfg.context in
  Irfunc.iter src (fun n ->
      let origin_start = Irfunc.num_nodes dst in
      let propagate () =
        for i = origin_start to Irfunc.num_nodes dst - 1 do
          let m = Irfunc.node dst i in
          if m.Irfunc.origin = "" then m.Irfunc.origin <- n.Irfunc.origin
        done
      in
      Fun.protect ~finally:propagate @@ fun () ->
      let out =
        match n.Irfunc.op with
        | Op.Param i ->
          let id = Irfunc.param dst i in
          annotate st id ~scale:st.delta ~level:chain;
          id
        | Op.Weight _ | Op.Const_scalar _ -> Irfunc.add dst n.Irfunc.op [||] n.Irfunc.ty
        | Op.S_encode -> -2 (* encoded lazily at each use site *)
        | Op.S_decode -> fail "SIHE.decode belongs to the generated decryptor, not the model"
        | Op.S_add -> lower_add_sub st n Op.C_add
        | Op.S_sub -> lower_add_sub st n Op.C_sub
        | Op.S_mul -> lower_mul st n
        | Op.S_neg ->
          let a = st.map.(n.Irfunc.args.(0)) in
          emit st Op.C_neg [| a |] ~scale:(scale_of st a) ~level:(level_of st a)
        | Op.S_rotate k ->
          (* A rotation consumes no level, but if the (shared) source is
             already exhausted and more multiplications follow, bootstrap
             here — once, before the fan-out — instead of once per rotated
             copy (the paper's placement before the consuming operator). *)
          let a_src = n.Irfunc.args.(0) in
          let a =
            if st.dtg.(n.Irfunc.id) > 0 then
              update st a_src
                (ensure_capacity st (reduce st st.map.(a_src)) ~want:(st.dtg.(n.Irfunc.id)))
            else st.map.(a_src)
          in
          emit st (Op.C_rotate k) [| a |] ~scale:(scale_of st a) ~level:(level_of st a)
        | Op.V_add | Op.V_sub | Op.V_mul | Op.V_roll _ | Op.V_broadcast _ | Op.V_pad _
        | Op.V_reshape _ | Op.V_slice _ | Op.V_tile _ ->
          Irfunc.add dst n.Irfunc.op (Array.map (fun a -> st.map.(a)) n.Irfunc.args) n.Irfunc.ty
        | op -> fail "unexpected %s in SIHE function" (Op.name op)
      in
      st.map.(n.Irfunc.id) <- out);
  let rets = List.map (fun r -> reduce st st.map.(r)) (Irfunc.returns src) in
  Irfunc.set_returns dst rets;
  dst

let rotation_amounts f =
  let seen = Hashtbl.create 64 in
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.C_rotate k when k <> 0 -> Hashtbl.replace seen k ()
      | Op.C_rotate_batch steps ->
        Array.iter (fun k -> if k <> 0 then Hashtbl.replace seen k ()) steps
      | _ -> ());
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let bootstrap_count f =
  Irfunc.fold f ~init:0 ~f:(fun acc n ->
      match n.Irfunc.op with Op.C_bootstrap _ -> acc + 1 | _ -> acc)

let max_level_used f =
  Irfunc.fold f ~init:0 ~f:(fun acc n -> max acc n.Irfunc.node_level)
