(* The generate-and-filter enumerator: the oracle of the exploration
   goldens and the baseline bench_explore measures the graph engine
   against.  From each run combination's rf/co-free execution it
   materializes the full cartesian product of rf choices and
   per-location coherence permutations, keeps the well-formed
   candidates, then filters by the model.  It takes only the run
   combinations from the library ([Enumerate.combinations]), never
   the candidate walk, so a candidate or a combination the walk drops
   still shows up here. *)

open Wmm_model

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun tail -> c :: tail) tails) choices

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      (* Remove the chosen element by position: filtering on structural
         equality would drop every duplicate occurrence at once and
         lose permutations (and their lengths) for lists with repeated
         elements. *)
      List.concat
        (List.mapi
           (fun i x ->
             let rest = List.filteri (fun j _ -> j <> i) l in
             List.map (fun p -> x :: p) (permutations rest))
           l)

(* The candidate of [x]'s run combination with rf relation [rf] and
   one coherence chain per location. *)
let candidate (x : Execution.t) ~rf chains =
  let co = Bitrel.create (Array.length x.Execution.events) in
  let rec order = function
    | [] -> ()
    | w :: rest ->
        List.iter (Bitrel.add co w) rest;
        order rest
  in
  List.iter order chains;
  { x with Execution.rf; co }

(* Every well-formed candidate of one run combination: rf choices
   lexicographic in read order, then each location's coherence
   permutations lexicographic, locations in init-write order. *)
let executions_of (x : Execution.t) =
  let ev = x.Execution.events in
  let n = Array.length ev in
  let writes = Execution.writes x in
  let rf_choices =
    List.map
      (fun r ->
        List.filter_map
          (fun w ->
            if Event.same_loc ev.(w) ev.(r) && Event.value ev.(w) = Event.value ev.(r) then
              Some (w, r)
            else None)
          writes)
      (Execution.reads x)
  in
  let co_per_loc =
    List.filter_map
      (fun (init : Event.t) ->
        if not (Event.is_init init) then None
        else
          let others =
            List.filter
              (fun w -> w <> init.Event.id && Event.loc ev.(w) = Event.loc init)
              writes
          in
          Some (List.map (fun perm -> init.Event.id :: perm) (permutations others)))
      (Array.to_list ev)
  in
  List.concat_map
    (fun rf_pairs ->
      let rf = Bitrel.of_list n rf_pairs in
      List.filter_map
        (fun chains ->
          let c = candidate x ~rf chains in
          match Execution.well_formed c with Ok () -> Some c | Error _ -> None)
        (cartesian co_per_loc))
    (cartesian rf_choices)

(* Every run combination's final registers and candidates. *)
let combinations p =
  List.map (fun (x, registers) -> (registers, executions_of x)) (Enumerate.combinations p)

let candidate_executions p =
  List.concat_map
    (fun (registers, xs) ->
      List.map (fun x -> (x, { Enumerate.registers; memory = Execution.final_memory x })) xs)
    (combinations p)

let allowed_outcomes model p =
  candidate_executions p
  |> List.filter (fun (x, _) -> Axiomatic.consistent model x)
  |> List.map snd
  |> List.sort_uniq Enumerate.compare_outcome
