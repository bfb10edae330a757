open Wmm_model
open Wmm_litmus

let find name =
  let base =
    if Filename.check_suffix name "+c11" then Filename.chop_suffix name "+c11" else name
  in
  match Locks.by_name name with
  | Some l -> Some (Locks.test_of l)
  | None -> Option.map C11.lift_test (Library.by_name base)

let locks () = List.map Locks.test_of Locks.all
let conform_default () = C11.lifted_library () @ locks ()

(* Every name through [lookup], in order, or the first it rejects. *)
let resolve lookup names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match lookup name with Some x -> go (x :: acc) rest | None -> Error name)
  in
  go [] names

let select ~limit ~default names =
  let tests = if names = [] then Ok (default ()) else resolve find names in
  Result.map (List.filteri (fun i _ -> limit = 0 || i < limit)) tests

let select_schemes ~default = function
  | [] -> Ok default
  | names -> resolve Compile.scheme_of_string names

let select_locks = function [] -> Ok Locks.all | names -> resolve Locks.by_name names

let explore (t : Test.t) =
  let outcomes = Enumerate.allowed_outcomes Axiomatic.Rc11 t.Test.program in
  let witness =
    Enumerate.outcome_allowed Axiomatic.Rc11 t.Test.program
      { Enumerate.registers = t.Test.condition; memory = t.Test.mem_condition }
  in
  (List.length outcomes, witness)
