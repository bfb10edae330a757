open Wmm_model
module Rel = Wmm_cert.Rel

(* Events fit in 0..8, so n = 9; the large-n case below covers the
   multi-word rows. *)
let n_small = 9

let pairs_gen =
  QCheck.(list_of_size (Gen.int_range 0 15) (pair (int_range 0 8) (int_range 0 8)))

let rel_of l = Bitrel.of_list n_small l

let subset r s = Bitrel.is_empty (Bitrel.diff r s)

let test_basics () =
  let r = rel_of [ (1, 2); (2, 3) ] in
  Alcotest.(check bool) "mem" true (Bitrel.mem r 1 2);
  Alcotest.(check bool) "not mem" false (Bitrel.mem r 2 1);
  Alcotest.(check int) "cardinal" 2 (Bitrel.cardinal r)

let test_compose () =
  let r = rel_of [ (1, 2); (5, 6) ] in
  let s = rel_of [ (2, 3); (2, 4) ] in
  let c = Bitrel.compose r s in
  Alcotest.(check (list (pair int int))) "compose" [ (1, 3); (1, 4) ] (Bitrel.to_list c)

let test_transitive_closure () =
  let r = rel_of [ (1, 2); (2, 3); (3, 4) ] in
  let tc = Bitrel.transitive_closure r in
  Alcotest.(check bool) "1->4" true (Bitrel.mem tc 1 4);
  Alcotest.(check int) "size" 6 (Bitrel.cardinal tc)

let test_acyclicity () =
  Alcotest.(check bool) "dag" true (Bitrel.is_acyclic (rel_of [ (1, 2); (2, 3); (1, 3) ]));
  Alcotest.(check bool) "cycle" false (Bitrel.is_acyclic (rel_of [ (1, 2); (2, 1) ]));
  Alcotest.(check bool) "self loop" false (Bitrel.is_acyclic (rel_of [ (3, 3) ]));
  Alcotest.(check bool) "empty" true (Bitrel.is_acyclic (Bitrel.create n_small))

let test_cross_identity () =
  let mask = Bitrel.Mask.of_list n_small in
  let c = Bitrel.cross (mask [ 1; 2 ]) (mask [ 3 ]) in
  Alcotest.(check int) "cross size" 2 (Bitrel.cardinal c);
  let id = Bitrel.reflexive_transitive_closure (Bitrel.create n_small) in
  Alcotest.(check bool) "id mem" true (Bitrel.mem id 2 2)

let prop_union_commutative =
  QCheck.Test.make ~name:"union commutative" ~count:200 (QCheck.pair pairs_gen pairs_gen)
    (fun (a, b) -> Bitrel.equal (Bitrel.union (rel_of a) (rel_of b))
        (Bitrel.union (rel_of b) (rel_of a)))

let prop_compose_associative =
  QCheck.Test.make ~name:"compose associative" ~count:200
    (QCheck.triple pairs_gen pairs_gen pairs_gen) (fun (a, b, c) ->
      let r = rel_of a and s = rel_of b and t = rel_of c in
      Bitrel.equal
        (Bitrel.compose (Bitrel.compose r s) t)
        (Bitrel.compose r (Bitrel.compose s t)))

let prop_closure_idempotent =
  QCheck.Test.make ~name:"closure idempotent" ~count:200 pairs_gen (fun l ->
      let tc = Bitrel.transitive_closure (rel_of l) in
      Bitrel.equal tc (Bitrel.transitive_closure tc))

let prop_closure_contains =
  QCheck.Test.make ~name:"closure contains relation" ~count:200 pairs_gen (fun l ->
      subset (rel_of l) (Bitrel.transitive_closure (rel_of l)))

let prop_inverse_involution =
  QCheck.Test.make ~name:"inverse involution" ~count:200 pairs_gen (fun l ->
      Bitrel.equal (rel_of l) (Bitrel.inverse (Bitrel.inverse (rel_of l))))

let prop_acyclic_iff_closure_irreflexive =
  QCheck.Test.make ~name:"acyclic iff closure irreflexive" ~count:200 pairs_gen (fun l ->
      let r = rel_of l in
      Bitrel.is_acyclic r = Bitrel.is_irreflexive (Bitrel.transitive_closure r))

(* ------------------------------------------------------------------ *)
(* Oracle agreement: Bitrel must compute exactly what the certificate
   checker's boolean-matrix relations (Wmm_cert.Rel, a page of obvious
   code with no bitsets) compute, on every operation the axiomatic
   checks use.                                                         *)
(* ------------------------------------------------------------------ *)

let oracle_of l = Rel.of_list n_small l

let same bit oracle = Bitrel.to_list bit = Rel.to_list oracle

let agree name f_rel f_bit =
  QCheck.Test.make ~name ~count:200 (QCheck.pair pairs_gen pairs_gen) (fun (a, b) ->
      same (f_bit (rel_of a) (rel_of b)) (f_rel (oracle_of a) (oracle_of b)))

let prop_bitrel_union = agree "bitrel union agrees" Rel.union Bitrel.union
let prop_bitrel_inter = agree "bitrel inter agrees" Rel.inter Bitrel.inter
let prop_bitrel_diff = agree "bitrel diff agrees" Rel.diff Bitrel.diff
let prop_bitrel_compose = agree "bitrel compose agrees" Rel.compose Bitrel.compose

let prop_bitrel_closure =
  QCheck.Test.make ~name:"bitrel transitive closure agrees" ~count:200 pairs_gen (fun l ->
      same (Bitrel.transitive_closure (rel_of l)) (Rel.transitive_closure (oracle_of l)))

let prop_bitrel_inverse =
  QCheck.Test.make ~name:"bitrel inverse agrees" ~count:200 pairs_gen (fun l ->
      same (Bitrel.inverse (rel_of l)) (Rel.inverse (oracle_of l)))

let prop_bitrel_acyclic =
  QCheck.Test.make ~name:"bitrel acyclicity agrees" ~count:500 pairs_gen (fun l ->
      Rel.is_acyclic (oracle_of l) = Bitrel.is_acyclic (rel_of l)
      && Rel.is_irreflexive (oracle_of l) = Bitrel.is_irreflexive (rel_of l))

let prop_bitrel_add_remove =
  QCheck.Test.make ~name:"bitrel add/remove roundtrip" ~count:200
    (QCheck.pair pairs_gen (QCheck.pair (QCheck.int_range 0 8) (QCheck.int_range 0 8)))
    (fun (l, (a, b)) ->
      let t = rel_of l in
      let before = Bitrel.mem t a b in
      Bitrel.add t a b;
      let added = Bitrel.mem t a b in
      Bitrel.remove t a b;
      let removed = Bitrel.mem t a b in
      added && (not removed)
      && same t (oracle_of (List.filter (fun p -> p <> (a, b)) l))
      && (before = List.mem (a, b) l))

(* An event subset, as the Bitrel mask and the oracle's predicate. *)
let ids_gen = QCheck.(list_of_size (Gen.int_range 0 9) (int_range 0 8))

let mask_of ids = Bitrel.Mask.of_list n_small ids

let pred_of ids i = List.mem i ids

let prop_bitrel_restrict =
  QCheck.Test.make ~name:"bitrel restrict agrees" ~count:200
    (QCheck.triple pairs_gen ids_gen ids_gen) (fun (l, dom, rng) ->
      same
        (Bitrel.restrict (rel_of l) ~domain:(mask_of dom) ~range:(mask_of rng))
        (Rel.restrict (oracle_of l) ~domain:(pred_of dom) ~range:(pred_of rng)))

let prop_bitrel_filter =
  QCheck.Test.make ~name:"bitrel filter agrees" ~count:200
    (QCheck.pair pairs_gen (QCheck.int_range 1 5)) (fun (l, k) ->
      let p a b = (a + (k * b)) mod 3 <> 0 in
      same (Bitrel.filter p (rel_of l)) (Rel.filter p (oracle_of l)))

let prop_bitrel_cross =
  QCheck.Test.make ~name:"bitrel cross agrees" ~count:200 (QCheck.pair ids_gen ids_gen)
    (fun (dom, rng) ->
      same
        (Bitrel.cross (mask_of dom) (mask_of rng))
        (Rel.cross n_small (pred_of dom) (pred_of rng)))

let prop_bitrel_remove_diagonal =
  QCheck.Test.make ~name:"bitrel remove_diagonal agrees" ~count:200 pairs_gen (fun l ->
      same (Bitrel.remove_diagonal (rel_of l)) (Rel.remove_diagonal (oracle_of l)))

let prop_bitrel_rtc =
  QCheck.Test.make ~name:"bitrel reflexive transitive closure agrees" ~count:200 pairs_gen
    (fun l ->
      same
        (Bitrel.reflexive_transitive_closure (rel_of l))
        (Rel.reflexive_transitive_closure (oracle_of l)))

let prop_bitrel_union_all =
  QCheck.Test.make ~name:"bitrel union_all agrees" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 4) pairs_gen) (fun ls ->
      same
        (Bitrel.union_all n_small (List.map rel_of ls))
        (Rel.union_all n_small (List.map oracle_of ls)))

(* Exercise the multi-word rows (n > 63): same algebra, offsets near
   the 63-bit word boundary. *)
let test_bitrel_large () =
  let n = 130 in
  let pairs = [ (0, 62); (62, 63); (63, 64); (64, 127); (127, 129); (129, 0) ] in
  let t = Bitrel.of_list n pairs in
  Alcotest.(check int) "cardinal" (List.length pairs) (Bitrel.cardinal t);
  Alcotest.(check bool) "mem across boundary" true (Bitrel.mem t 63 64);
  let tc = Bitrel.transitive_closure t in
  Alcotest.(check bool) "closure spans words" true (Bitrel.mem tc 0 129);
  Alcotest.(check bool) "cycle detected" false (Bitrel.is_acyclic t);
  Alcotest.(check bool) "acyclic after cut" true
    (Bitrel.is_acyclic (Bitrel.of_list n (List.tl pairs)));
  Alcotest.(check
              (list (pair int int)))
    "roundtrip" (Rel.to_list (Rel.of_list n pairs)) (Bitrel.to_list t)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "compose" `Quick test_compose;
    Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
    Alcotest.test_case "acyclicity" `Quick test_acyclicity;
    Alcotest.test_case "cross and identity" `Quick test_cross_identity;
    QCheck_alcotest.to_alcotest prop_union_commutative;
    QCheck_alcotest.to_alcotest prop_compose_associative;
    QCheck_alcotest.to_alcotest prop_closure_idempotent;
    QCheck_alcotest.to_alcotest prop_closure_contains;
    QCheck_alcotest.to_alcotest prop_inverse_involution;
    QCheck_alcotest.to_alcotest prop_acyclic_iff_closure_irreflexive;
    Alcotest.test_case "bitrel large n" `Quick test_bitrel_large;
    QCheck_alcotest.to_alcotest prop_bitrel_union;
    QCheck_alcotest.to_alcotest prop_bitrel_inter;
    QCheck_alcotest.to_alcotest prop_bitrel_diff;
    QCheck_alcotest.to_alcotest prop_bitrel_compose;
    QCheck_alcotest.to_alcotest prop_bitrel_closure;
    QCheck_alcotest.to_alcotest prop_bitrel_inverse;
    QCheck_alcotest.to_alcotest prop_bitrel_acyclic;
    QCheck_alcotest.to_alcotest prop_bitrel_add_remove;
    QCheck_alcotest.to_alcotest prop_bitrel_restrict;
    QCheck_alcotest.to_alcotest prop_bitrel_filter;
    QCheck_alcotest.to_alcotest prop_bitrel_cross;
    QCheck_alcotest.to_alcotest prop_bitrel_remove_diagonal;
    QCheck_alcotest.to_alcotest prop_bitrel_rtc;
    QCheck_alcotest.to_alcotest prop_bitrel_union_all;
  ]
