(* The packed uop codec: every constructor round-trips through one word
   with any representable argument, out-of-range arguments are
   rejected, and the kind view names the constructor. *)

open Wmm_machine

(* Each constructor with its kind; [None] for one without an argument. *)
let constructors : (Uop.Kind.t * (int -> Uop.t) option) list =
  [
    (Busy, Some (fun a -> Uop.Busy a));
    (Load, Some (fun a -> Uop.Load a));
    (Store, Some (fun a -> Uop.Store a));
    (Load_acquire, Some (fun a -> Uop.Load_acquire a));
    (Store_release, Some (fun a -> Uop.Store_release a));
    (Fence_full, None);
    (Fence_store, None);
    (Fence_load, None);
    (Fence_lw, None);
    (Fence_pipeline, None);
    (Branch, None);
    (Spin, Some (fun a -> Uop.Spin a));
    (Spin_light, Some (fun a -> Uop.Spin_light a));
    (Nops, Some (fun a -> Uop.Nops a));
    (Counter_shared, Some (fun a -> Uop.Counter_shared a));
    (Counter_private, Some (fun a -> Uop.Counter_private a));
  ]

let constant : Uop.Kind.t -> Uop.t = function
  | Fence_full -> Fence_full
  | Fence_store -> Fence_store
  | Fence_load -> Fence_load
  | Fence_lw -> Fence_lw
  | Fence_pipeline -> Fence_pipeline
  | Branch -> Branch
  | _ -> invalid_arg "constant"

(* Every uop the edge cases cover: each argument-carrying constructor
   with the sentinel -1, 0, 1 and both range ends, and each constant
   constructor once. *)
let edge_args = [ -1; 0; 1; Uop.max_arg; Uop.min_arg ]

let edge_uops =
  List.concat_map
    (fun (k, mk) ->
      match mk with
      | Some mk -> List.map (fun a -> (k, a, mk a)) edge_args
      | None -> [ (k, 0, constant k) ])
    constructors

let show u = Format.asprintf "%a" Uop.pp u

let test_sixteen_constructors () =
  Alcotest.(check int) "one kind per 4-bit tag" 16 (List.length constructors);
  let words = List.map (fun (k, _) -> Uop.make k 0) constructors in
  Alcotest.(check int) "distinct words" 16 (List.length (List.sort_uniq compare words))

let test_round_trip_edges () =
  List.iter
    (fun (_, _, u) ->
      Alcotest.(check string) ("unpack (pack u) = u for " ^ show u) (show u)
        (show (Uop.unpack (Uop.pack u)));
      Alcotest.(check bool) ("structurally equal: " ^ show u) true (Uop.unpack (Uop.pack u) = u))
    edge_uops

let test_kind_and_arg () =
  List.iter
    (fun (k, a, u) ->
      let w = Uop.pack u in
      Alcotest.(check bool) ("kind of " ^ show u) true (Uop.kind w = k);
      Alcotest.(check int) ("arg of " ^ show u) a (Uop.arg w);
      Alcotest.(check bool) ("make agrees with pack for " ^ show u) true (Uop.make k a = w))
    edge_uops

let test_range_edges_rejected () =
  Alcotest.(check bool) "at least 58 argument bits" true (Uop.max_arg >= (1 lsl 57) - 1);
  Alcotest.(check int) "symmetric range" (-Uop.max_arg - 1) Uop.min_arg;
  List.iter
    (fun (_, mk) ->
      Option.iter
        (fun mk ->
          List.iter
            (fun a ->
              match Uop.pack (mk a) with
              | _ -> Alcotest.failf "pack accepted %s" (show (mk a))
              | exception Invalid_argument _ -> ())
            [ Uop.max_arg + 1; Uop.min_arg - 1; max_int; min_int ])
        mk)
    constructors

let arg_constructors = List.filter_map (fun (k, mk) -> Option.map (fun mk -> (k, mk)) mk) constructors

let prop_round_trip =
  QCheck.Test.make ~name:"unpack (pack u) = u over random arguments" ~count:2000
    QCheck.(pair (int_range 0 (List.length arg_constructors - 1)) (int_range Uop.min_arg Uop.max_arg))
    (fun (i, a) ->
      let k, mk = List.nth arg_constructors i in
      let w = Uop.pack (mk a) in
      Uop.unpack w = mk a && Uop.kind w = k && Uop.arg w = a)

let prop_in_range_iff_accepted =
  QCheck.Test.make ~name:"pack accepts exactly the representable arguments" ~count:2000 QCheck.int
    (fun a ->
      let in_range = a >= Uop.min_arg && a <= Uop.max_arg in
      match Uop.pack (Uop.Load a) with
      | w -> in_range && Uop.arg w = a
      | exception Invalid_argument _ -> not in_range)

let suite =
  [
    Alcotest.test_case "sixteen constructors, sixteen tags" `Quick test_sixteen_constructors;
    Alcotest.test_case "round trip at the edges" `Quick test_round_trip_edges;
    Alcotest.test_case "kind and arg views" `Quick test_kind_and_arg;
    Alcotest.test_case "out-of-range arguments rejected" `Quick test_range_edges_rejected;
    QCheck_alcotest.to_alcotest prop_round_trip;
    QCheck_alcotest.to_alcotest prop_in_range_iff_accepted;
  ]
