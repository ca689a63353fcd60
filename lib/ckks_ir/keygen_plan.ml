
type plan = { rotation_steps : int list; decompose : int -> int list }

let pruned f =
  let steps = Lower_sihe.rotation_amounts f in
  { rotation_steps = steps; decompose = (fun k -> [ k ]) }

let power_of_two ~slots =
  let steps = ref [] in
  let k = ref 1 in
  while !k < slots do
    steps := !k :: (slots - !k) :: !steps;
    (* negative direction realised as slots - 2^j *)
    k := !k * 2
  done;
  let steps = List.sort_uniq compare !steps in
  let decompose step =
    let step = ((step mod slots) + slots) mod slots in
    let rec go remaining bit acc =
      if remaining = 0 then acc
      else if remaining land 1 = 1 then go (remaining lsr 1) (bit * 2) (bit :: acc)
      else go (remaining lsr 1) (bit * 2) acc
    in
    go step 1 []
  in
  { rotation_steps = steps; decompose }

let key_count p = List.length p.rotation_steps

let rewrite_rotations p f =
  let open Ace_ir in
  let params = Array.to_list (Irfunc.params f) in
  Irfunc.map_rebuild f ~name:(Irfunc.name f) ~level:(Irfunc.level f) ~params
    ~emit:(fun dst lookup n ->
      let out =
        match n.Irfunc.op with
        | Op.Param i -> Irfunc.param dst i
        | Op.C_rotate k ->
          List.fold_left
            (fun acc hop ->
              let id = Irfunc.add dst (Op.C_rotate hop) [| acc |] n.Irfunc.ty in
              let m = Irfunc.node dst id in
              m.Irfunc.scale <- n.Irfunc.scale;
              m.Irfunc.node_level <- n.Irfunc.node_level;
              m.Irfunc.origin <- n.Irfunc.origin;
              id)
            (lookup n.Irfunc.args.(0))
            (p.decompose k)
        | _ -> Irfunc.add dst n.Irfunc.op (Array.map lookup n.Irfunc.args) n.Irfunc.ty
      in
      let m = Irfunc.node dst out in
      if m.Irfunc.node_level < 0 then begin
        m.Irfunc.scale <- n.Irfunc.scale;
        m.Irfunc.node_level <- n.Irfunc.node_level
      end;
      if m.Irfunc.origin = "" then m.Irfunc.origin <- n.Irfunc.origin;
      out)

let evaluation_key_bytes ctx p = Ace_fhe.Keys.switching_key_bytes ctx * (1 + key_count p)
