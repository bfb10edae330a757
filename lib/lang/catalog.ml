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

let select ~limit ~default names =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match find name with Some t -> resolve (t :: acc) rest | None -> Error name)
  in
  let tests = if names = [] then Ok (default ()) else resolve [] names in
  Result.map (List.filteri (fun i _ -> limit = 0 || i < limit)) tests

let explore (t : Test.t) =
  let outcomes = Enumerate.allowed_outcomes Axiomatic.Rc11 t.Test.program in
  let witness =
    Enumerate.outcome_allowed Axiomatic.Rc11 t.Test.program
      { Enumerate.registers = t.Test.condition; memory = t.Test.mem_condition }
  in
  (List.length outcomes, witness)
