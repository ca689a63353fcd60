module Sign_approx = Ace_approx.Sign_approx
module Poly = Ace_approx.Poly
open Ace_ir

type config = { relu_alpha : int }

let default = { relu_alpha = 4 }

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let slots_of f =
  match (Irfunc.params f).(0) with
  | _, Types.Vec n -> n
  | _ -> invalid_arg "Lower_vec: VECTOR function expected"

(* Evaluate a cleartext polynomial on a ciphertext with memoized powers
   (square-and-multiply, depth logarithmic in the degree). *)
let eval_poly dst ~encode_const p x =
  let powers = Hashtbl.create 8 in
  Hashtbl.add powers 1 x;
  let rec pow k =
    match Hashtbl.find_opt powers k with
    | Some v -> v
    | None ->
      let a = k / 2 in
      let v = Irfunc.add dst Op.S_mul [| pow a; pow (k - a) |] Types.Cipher in
      Hashtbl.add powers k v;
      v
  in
  let coeffs = Poly.coeffs p in
  let terms = ref [] in
  Array.iteri
    (fun k c ->
      if k >= 1 && abs_float c > 1e-300 then
        terms := Irfunc.add dst Op.S_mul [| pow k; encode_const c |] Types.Cipher :: !terms)
    coeffs;
  let sum =
    match !terms with
    | [] -> fail "polynomial with no nonconstant terms"
    | first :: rest -> List.fold_left (fun acc t -> Irfunc.add dst Op.S_add [| acc; t |] Types.Cipher) first rest
  in
  if abs_float coeffs.(0) > 1e-300 then
    Irfunc.add dst Op.S_add [| sum; encode_const coeffs.(0) |] Types.Cipher
  else sum

let expand_relu dst ~encode_const ~sign x =
  let s =
    List.fold_left (fun v p -> eval_poly dst ~encode_const p v) x sign.Sign_approx.stages
  in
  let one_plus = Irfunc.add dst Op.S_add [| s; encode_const 1.0 |] Types.Cipher in
  let half_x = Irfunc.add dst Op.S_mul [| x; encode_const 0.5 |] Types.Cipher in
  Irfunc.add dst Op.S_mul [| half_x; one_plus |] Types.Cipher

(* Registry of smooth nonlinearities approximated by a single minimax
   polynomial (the paper's exp/log/tanh family, Section 2.3): the Remez
   exchange runs once per function and is memoised. ReLU is special-cased
   to the composite sign because its kink defeats single polynomials. *)
let smooth_table : (string, Ace_approx.Poly.t) Hashtbl.t = Hashtbl.create 8

let smooth_approx name =
  match Hashtbl.find_opt smooth_table name with
  | Some p -> Some p
  | None ->
    let spec =
      match name with
      | "sigmoid" -> Some ((fun x -> 1.0 /. (1.0 +. exp (-.x))), 13)
      | "tanh" -> Some (tanh, 13)
      | "softplus" -> Some ((fun x -> log (1.0 +. exp x)), 13)
      | _ -> None
    in
    Option.map
      (fun (f, degree) ->
        let p, _err = Ace_approx.Remez.minimax f ~degree ~lo:(-5.0) ~hi:5.0 in
        Hashtbl.add smooth_table name p;
        p)
      spec

let lower cfg src =
  if Irfunc.level src <> Level.Vector then invalid_arg "Lower_vec.lower: not a VECTOR function";
  let slots = slots_of src in
  let sign = Sign_approx.make ~alpha:cfg.relu_alpha in
  let params =
    Array.to_list (Irfunc.params src) |> List.map (fun (name, _) -> (name, Types.Cipher))
  in
  let dst = Irfunc.create ~name:(Irfunc.name src) ~level:Level.Sihe ~params in
  List.iter
    (fun c -> Irfunc.add_const dst c ~dims:(Irfunc.const_dims src c) (Irfunc.const src c))
    (Irfunc.const_names src);
  (* Cache of encoded plaintexts: source clear node -> Plain node. *)
  let encoded = Hashtbl.create 64 in
  (* Cache of encoded broadcast constants. *)
  let const_plain = Hashtbl.create 16 in
  let encode_const v =
    match Hashtbl.find_opt const_plain v with
    | Some id -> id
    | None ->
      let name = Irfunc.fresh_const dst ~prefix:"relu.c" (Array.make slots v) in
      let w = Irfunc.add dst (Op.Weight name) [||] (Types.Vec slots) in
      let id = Irfunc.add dst Op.S_encode [| w |] Types.Plain in
      Hashtbl.add const_plain v id;
      id
  in
  let map = Array.make (Irfunc.num_nodes src) (-1) in
  let is_cipher = Array.make (Irfunc.num_nodes src) false in
  let lookup i =
    if map.(i) < 0 then invalid_arg "Lower_vec: unmapped node";
    map.(i)
  in
  let encode_clear i =
    match Hashtbl.find_opt encoded i with
    | Some id -> id
    | None ->
      let id = Irfunc.add dst Op.S_encode [| lookup i |] Types.Plain in
      Hashtbl.add encoded i id;
      id
  in
  Irfunc.iter src (fun n ->
      let origin_start = Irfunc.num_nodes dst in
      let propagate () =
        for i = origin_start to Irfunc.num_nodes dst - 1 do
          let m = Irfunc.node dst i in
          if m.Irfunc.origin = "" then m.Irfunc.origin <- n.Irfunc.origin
        done
      in
      Fun.protect ~finally:propagate @@ fun () ->
      let arg i = n.Irfunc.args.(i) in
      let cipher i = is_cipher.(arg i) in
      let out_id, out_cipher =
        match n.Irfunc.op with
        | Op.Param i -> (Irfunc.param dst i, true)
        | Op.Weight _ | Op.Const_scalar _ ->
          (Irfunc.add dst n.Irfunc.op [||] n.Irfunc.ty, false)
        | Op.V_add | Op.V_sub | Op.V_mul ->
          let s_op = match n.Irfunc.op with
            | Op.V_add -> Op.S_add
            | Op.V_sub -> Op.S_sub
            | _ -> Op.S_mul
          in
          if cipher 0 && cipher 1 then
            (Irfunc.add dst s_op [| lookup (arg 0); lookup (arg 1) |] Types.Cipher, true)
          else if cipher 0 then
            (Irfunc.add dst s_op [| lookup (arg 0); encode_clear (arg 1) |] Types.Cipher, true)
          else if cipher 1 then begin
            match n.Irfunc.op with
            | Op.V_add | Op.V_mul ->
              (Irfunc.add dst s_op [| lookup (arg 1); encode_clear (arg 0) |] Types.Cipher, true)
            | _ ->
              (* clear - cipher = neg (cipher - clear) *)
              let d = Irfunc.add dst Op.S_sub [| lookup (arg 1); encode_clear (arg 0) |] Types.Cipher in
              (Irfunc.add dst Op.S_neg [| d |] Types.Cipher, true)
          end
          else (Irfunc.add dst n.Irfunc.op [| lookup (arg 0); lookup (arg 1) |] n.Irfunc.ty, false)
        | Op.V_roll k ->
          if cipher 0 then (Irfunc.add dst (Op.S_rotate k) [| lookup (arg 0) |] Types.Cipher, true)
          else (Irfunc.add dst (Op.V_roll k) [| lookup (arg 0) |] n.Irfunc.ty, false)
        | Op.V_nonlinear "relu" ->
          if not (cipher 0) then fail "cleartext relu below VECTOR level";
          (expand_relu dst ~encode_const ~sign (lookup (arg 0)), true)
        | Op.V_nonlinear fn -> (
          if not (cipher 0) then fail "cleartext %s below VECTOR level" fn;
          match smooth_approx fn with
          | Some p -> (eval_poly dst ~encode_const p (lookup (arg 0)), true)
          | None -> fail "no approximation registered for %s" fn)
        | Op.V_broadcast _ | Op.V_pad _ | Op.V_reshape _ | Op.V_slice _ | Op.V_tile _ ->
          if cipher 0 then fail "shape op on ciphertext: %s" (Op.name n.Irfunc.op)
          else (Irfunc.add dst n.Irfunc.op [| lookup (arg 0) |] n.Irfunc.ty, false)
        | op -> fail "unexpected %s in VECTOR function" (Op.name op)
      in
      map.(n.Irfunc.id) <- out_id;
      is_cipher.(n.Irfunc.id) <- out_cipher);
  Irfunc.set_returns dst (List.map lookup (Irfunc.returns src));
  dst

let relu_depth cfg =
  let sign = Sign_approx.make ~alpha:cfg.relu_alpha in
  Sign_approx.depth sign + 2

let rotation_amounts f =
  let seen = Hashtbl.create 64 in
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.S_rotate k when k <> 0 -> Hashtbl.replace seen k ()
      | _ -> ());
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare
