open Wmm_util

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_does_not_advance () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy equals original" (Rng.int64 a) (Rng.int64 b)

let test_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits a) in
  let ys = List.init 20 (fun _ -> Rng.bits b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* The property the execution engine depends on: once split streams
   are derived, the order in which they are consumed - i.e. the order
   worker domains happen to schedule their tasks - cannot change any
   stream's output. *)
let test_split_order_independent () =
  let consume order =
    let root = Rng.create 99 in
    let streams = Array.init 4 (fun _ -> Rng.split root) in
    let out = Array.make 4 [] in
    List.iter (fun i -> out.(i) <- List.init 8 (fun _ -> Rng.int64 streams.(i))) order;
    out
  in
  let sequential = consume [ 0; 1; 2; 3 ] in
  let shuffled = consume [ 3; 1; 0; 2 ] in
  Array.iteri
    (fun i xs ->
      Alcotest.(check (list int64))
        (Printf.sprintf "stream %d identical under reordering" i)
        xs shuffled.(i))
    sequential

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_rejects_bad_bound () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_unit_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_uniform_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.unit_float rng
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng ~mean:3. ~std:2.) in
  let mean = Stats.mean samples in
  let std = Stats.std samples in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.) < 0.1);
  Alcotest.(check bool) "std near 2" true (abs_float (std -. 2.) < 0.1)

let test_exponential_mean () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.exponential rng ~rate:2.) in
  Alcotest.(check bool) "mean near 1/rate" true (abs_float (Stats.mean samples -. 0.5) < 0.02)

let test_pareto_positive () =
  let rng = Rng.create 19 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "at least scale" true (Rng.pareto rng ~shape:2. ~scale:1.5 >= 1.5)
  done

let test_lognormal_positive () =
  let rng = Rng.create 23 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

(* Known answers: the first outputs of fixed seeds.  Every simulated
   figure is a function of these streams, so a change to the generator's
   representation must leave them bit-identical. *)
let test_known_answers () =
  let hex x = Printf.sprintf "%h" x in
  let r = Rng.create 42 in
  Alcotest.(check (list int64)) "create 42"
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L ]
    (List.init 4 (fun _ -> Rng.int64 r));
  let r = Rng.create 42 in
  let s = Rng.split r in
  Alcotest.(check (list int64)) "split stream"
    [ 0x8ee445d14631c453L; 0x106fa1a13296fe62L; 0x729a768806244ce5L ]
    (List.init 3 (fun _ -> Rng.int64 s));
  Alcotest.(check int64) "split advances the parent once" 0x6104d9866d113a7eL (Rng.int64 r);
  let r = Rng.create 7 in
  Alcotest.(check (list int)) "int" [ 998; 668; 909; 416; 166; 930 ]
    (List.init 6 (fun _ -> Rng.int r 1000));
  Alcotest.(check int) "int, large bound" 280169515587409429 (Rng.int r (max_int / 3));
  Alcotest.(check int) "bits" 481625069074503799 (Rng.bits r);
  Alcotest.(check (list bool)) "bool" [ false; true; true; false; true; true ]
    (List.init 6 (fun _ -> Rng.bool r));
  let r = Rng.create 9 in
  Alcotest.(check (list string)) "unit_float"
    [ "0x1.529dd9ec334p-9"; "0x1.01866e17454bep-2"; "0x1.0f485e418402cp-3" ]
    (List.init 3 (fun _ -> hex (Rng.unit_float r)));
  let r = Rng.create 13 in
  Alcotest.(check (list string)) "gaussian"
    [ "0x1.d8365c23254d5p+1"; "0x1.b724e03a3ec1ep+1"; "0x1.48cb3bb39b6bfp+0" ]
    (List.init 3 (fun _ -> hex (Rng.gaussian r ~mean:3. ~std:2.)));
  let r = Rng.create 17 in
  Alcotest.(check string) "exponential" "0x1.ac9b941984b73p-3" (hex (Rng.exponential r ~rate:2.));
  Alcotest.(check string) "pareto" "0x1.eb877decb684p+1" (hex (Rng.pareto r ~shape:1.5 ~scale:3.));
  Alcotest.(check string) "lognormal" "0x1.6a83427d34d02p+0" (hex (Rng.lognormal r ~mu:0. ~sigma:1.));
  Alcotest.(check string) "float" "0x1.aa728da91ab14p+2" (hex (Rng.float r 10.))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle_in_place rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_choose_member =
  QCheck.Test.make ~name:"choose returns a member" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 20) small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      List.mem (Rng.choose rng (Array.of_list l)) l)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy does not advance" `Quick test_copy_does_not_advance;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "split order independence" `Quick test_split_order_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pareto support" `Quick test_pareto_positive;
    Alcotest.test_case "lognormal support" `Quick test_lognormal_positive;
    Alcotest.test_case "known answers" `Quick test_known_answers;
    QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
    QCheck_alcotest.to_alcotest prop_choose_member;
  ]
