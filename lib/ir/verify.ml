exception Ill_formed of string

(* Per-opcode typing; [well_formed] names the node, so messages do not. *)
let fail fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt

let conv_out_dims (a : Op.conv_attrs) in_dims =
  match in_dims with
  | [| c; h; w |] when c = a.in_channels ->
    let out d = ((d + (2 * a.pad) - a.kernel) / a.stride) + 1 in
    [| a.out_channels; out h; out w |]
  | _ -> [||]

let check_node f (n : Irfunc.node) =
  let ty i = (Irfunc.node f n.args.(i)).ty in
  let is_cipher t = Types.equal t Types.Cipher in
  let cipher_or_plain t = Types.equal t Types.Cipher || Types.equal t Types.Plain in
  match n.op with
  | Op.Param i ->
    let _, pty = (Irfunc.params f).(i) in
    if not (Types.equal pty n.ty) then fail "param type mismatch"
  | Op.Weight name ->
    if not (Irfunc.has_const f name) then fail "weight %s not in constant pool" name;
    let elems = Array.length (Irfunc.const f name) in
    (match n.ty with
    | Types.Tensor _ | Types.Vec _ ->
      if Types.tensor_elems n.ty <> elems then
        fail "weight %s has %d elements but type %s" name elems (Types.to_string n.ty)
    | Types.Plain -> ()
    | _ -> fail "weight must be tensor, vector, clear or plain")
  | Op.Const_scalar _ -> if not (Types.equal n.ty Types.Scalar) then fail "const must be scalar"
  | Op.Nn k -> (
    match k with
    | Op.Conv a -> (
      match (ty 0, n.ty) with
      | Types.Tensor din, Types.Tensor dout ->
        let expect = conv_out_dims a din in
        if expect = [||] then fail "conv input shape/channels mismatch";
        if expect <> dout then
          fail "conv output should be %s" (Types.to_string (Types.Tensor expect))
      | _ -> fail "conv operands must be tensors")
    | Op.Gemm g -> (
      match (ty 0, n.ty) with
      | Types.Tensor _, Types.Tensor dout ->
        if Types.tensor_elems (ty 0) <> g.cols then fail "gemm input length != cols";
        if Types.tensor_elems (Types.Tensor dout) <> g.rows then fail "gemm output length != rows"
      | _ -> fail "gemm operands must be tensors")
    | Op.Relu | Op.Sigmoid | Op.Tanh | Op.Average_pool _ | Op.Global_average_pool
    | Op.Flatten | Op.Reshape _ | Op.Strided_slice _ -> (
      match ty 0 with
      | Types.Tensor _ -> ()
      | _ -> fail "NN op needs tensor input")
    | Op.Add | Op.Mul ->
      if not (Types.equal (ty 0) (ty 1)) then fail "NN binop operands differ";
      if not (Types.equal (ty 0) n.ty) then fail "NN binop result type differs")
  | Op.V_add | Op.V_mul | Op.V_sub ->
    if not (Types.equal (ty 0) (ty 1) && Types.equal (ty 0) n.ty) then
      fail "VECTOR binop type mismatch"
  | Op.V_roll _ | Op.V_nonlinear _ ->
    if not (Types.equal (ty 0) n.ty) then fail "VECTOR unop must preserve type"
  | Op.V_broadcast _ | Op.V_pad _ | Op.V_reshape _ | Op.V_slice _ | Op.V_tile _ -> (
    match (ty 0, n.ty) with
    | Types.Vec _, Types.Vec _ -> ()
    | _ -> fail "VECTOR shape op needs vectors")
  | Op.S_add | Op.S_sub | Op.S_mul ->
    if not (is_cipher (ty 0)) then fail "SIHE binop first operand must be cipher";
    if not (cipher_or_plain (ty 1)) then fail "SIHE binop second operand must be cipher|plain";
    if not (is_cipher n.ty) then fail "SIHE binop result must be cipher"
  | Op.S_rotate _ | Op.S_neg ->
    if not (is_cipher (ty 0) && is_cipher n.ty) then fail "SIHE unop needs cipher"
  | Op.S_encode -> (
    match (ty 0, n.ty) with
    | Types.Vec _, Types.Plain -> ()
    | _ -> fail "SIHE.encode: clear -> plain")
  | Op.S_decode -> (
    match (ty 0, n.ty) with
    | Types.Plain, Types.Vec _ -> ()
    | _ -> fail "SIHE.decode: plain -> clear")
  | Op.C_add | Op.C_sub ->
    (* Degree-2 (Cipher3) values flow through additive ops under lazy
       relinearisation: the result degree is the max of the cipher
       operand degrees. *)
    let d0 = ty 0 and d1 = ty 1 in
    if not (Types.is_ciphertext d0) then fail "CKKS binop first operand must be cipher";
    if not (Types.is_ciphertext d1 || Types.equal d1 Types.Plain) then
      fail "CKKS binop second operand must be cipher|plain";
    let expect =
      if Types.equal d0 Types.Cipher3 || Types.equal d1 Types.Cipher3 then Types.Cipher3
      else Types.Cipher
    in
    if not (Types.equal n.ty expect) then
      fail "CKKS binop result must be %s" (Types.to_string expect)
  | Op.C_mul ->
    if not (Types.is_ciphertext (ty 0)) then fail "CKKS.mul first operand must be cipher";
    (match ty 1 with
    | Types.Cipher ->
      if not (Types.equal (ty 0) Types.Cipher) then
        fail "cipher*cipher needs relinearised (degree-1) operands";
      if not (Types.equal n.ty Types.Cipher3) then fail "cipher*cipher yields cipher3"
    | Types.Plain ->
      (* Plaintext masks multiply any degree componentwise. *)
      if not (Types.equal n.ty (ty 0)) then fail "cipher*plain preserves operand degree"
    | _ -> fail "CKKS.mul second operand must be cipher|plain")
  | Op.C_relin -> (
    match (ty 0, n.ty) with
    | Types.Cipher3, Types.Cipher -> ()
    | _ -> fail "CKKS.relin: cipher3 -> cipher")
  | Op.C_neg | Op.C_rescale | Op.C_mod_switch | Op.C_upscale _ | Op.C_downscale _
  | Op.C_mul_i ->
    (* Degree-preserving unops: componentwise on however many polynomials
       the ciphertext has ([C_mul_i] is a monomial multiply, also
       componentwise). *)
    if not (Types.is_ciphertext (ty 0)) then fail "CKKS unop needs cipher";
    if not (Types.equal n.ty (ty 0)) then fail "CKKS unop preserves operand degree"
  | Op.C_conj ->
    (* Conjugation key-switches, so like rotation it needs degree 1. *)
    if not (Types.equal (ty 0) Types.Cipher && Types.equal n.ty Types.Cipher) then
      fail "CKKS.conjugate needs a degree-1 cipher"
  | Op.C_rotate _ | Op.C_bootstrap _ ->
    (* Key-switching ops require a relinearised operand. *)
    if not (Types.equal (ty 0) Types.Cipher && Types.equal n.ty Types.Cipher) then
      fail "CKKS %s needs a degree-1 cipher" (Op.name n.op)
  | Op.C_rotate_batch steps ->
    if Array.length steps = 0 then fail "CKKS.rotate_batch: empty step list";
    if not (is_cipher (ty 0) && is_cipher n.ty) then fail "CKKS.rotate_batch needs cipher"
  | Op.C_batch_get i -> (
    match (Irfunc.node f n.args.(0)).op with
    | Op.C_rotate_batch steps ->
      if i < 0 || i >= Array.length steps then
        fail "CKKS.batch_get: index %d out of range for %d-step batch" i
          (Array.length steps);
      if not (is_cipher n.ty) then fail "CKKS.batch_get result must be cipher"
    | op -> fail "CKKS.batch_get argument must be a rotate_batch, got %s" (Op.name op))
  | Op.C_encode | Op.C_encode_pair -> (
    match (ty 0, n.ty) with
    | Types.Vec _, Types.Plain -> ()
    | _ -> fail "CKKS.encode: clear -> plain")
  | Op.C_decode -> (
    match (ty 0, n.ty) with
    | Types.Plain, Types.Vec _ -> ()
    | _ -> fail "CKKS.decode: plain -> clear")

let well_formed ~pass f =
  let c = Diagnostic.collector ~pass ~level:(Irfunc.level f) in
  let report kind ?node fmt = Diagnostic.report c kind ?node fmt in
  let num = Irfunc.num_nodes f in
  for i = 0 to num - 1 do
    let n = Irfunc.node f i in
    if n.id <> i then
      report Diagnostic.Multiple_definition ~node:i
        "node claims id %%%d but sits at program position %d" n.id i;
    let args_ok = ref true in
    Array.iter
      (fun a ->
        if a < 0 || a >= num then begin
          args_ok := false;
          report Diagnostic.Undefined_value ~node:i "argument %%%d does not exist" a
        end
        else if a >= i then begin
          args_ok := false;
          report Diagnostic.Undefined_value ~node:i
            "argument %%%d is not defined before its use (def-before-use)" a
        end)
      n.args;
    (match Op.arity n.op with
    | Some k when k <> Array.length n.args ->
      args_ok := false;
      report Diagnostic.Arity_mismatch ~node:i "%s expects %d arguments, got %d" (Op.name n.op)
        k (Array.length n.args)
    | _ -> ());
    (* Level discipline: SIHE and CKKS functions inherit cleartext VECTOR
       ops on weights (the paper's Listings 3-4 keep VECTOR.slice on
       weights), except the nonlinear placeholder, which must have been
       approximated away by then. *)
    (match (Op.level n.op, Irfunc.level f) with
    | None, _ -> ()
    | Some l, fl when l = fl -> ()
    | Some Level.Vector, (Level.Sihe | Level.Ckks) -> (
      match n.op with
      | Op.V_nonlinear fn ->
        report Diagnostic.Level_violation ~node:i
          "unapproximated nonlinear %s below VECTOR level" fn
      | _ -> ())
    | Some l, fl ->
      report Diagnostic.Level_violation ~node:i "%s op in a %s-level function"
        (Level.to_string l) (Level.to_string fl));
    if !args_ok then
      try check_node f n with
      | Ill_formed msg -> report Diagnostic.Type_mismatch ~node:i "%s" msg
      | Invalid_argument msg | Failure msg ->
        report Diagnostic.Type_mismatch ~node:i "typing probe failed: %s" msg
  done;
  (match Irfunc.returns f with
  | [] -> report Diagnostic.No_returns "function returns nothing"
  | rets ->
    List.iter
      (fun r ->
        if r < 0 || r >= num then
          report Diagnostic.Undefined_value "return value %%%d does not exist" r)
      rets);
  Diagnostic.finish c

let verify f =
  match well_formed ~pass:"verify" f with
  | [] -> ()
  | d :: _ -> raise (Ill_formed (Diagnostic.to_string d))

let verify_result f = try Ok (verify f) with Ill_formed m -> Error m
