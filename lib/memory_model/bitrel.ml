(* Packed adjacency-matrix relations.  Row [a] of [rows] occupies
   words [a*w .. a*w + w - 1]; bit [b] of the row lives in word
   [b / bits_per_word] at offset [b mod bits_per_word].  OCaml
   immediates give 63 usable bits per word. *)

let bits_per_word = 63

type t = { n : int; w : int; rows : int array }

let words_for n = (n + bits_per_word - 1) / bits_per_word

(* Number of trailing zeros of a non-zero word, for bit iteration. *)
let ntz x =
  let rec go x i = if x land 1 = 1 then i else go (x lsr 1) (i + 1) in
  go x 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let iter_bits f word base =
  let x = ref word in
  while !x <> 0 do
    f (base + ntz !x);
    x := !x land (!x - 1)
  done

module Mask = struct
  type m = { mn : int; mw : int; bits : int array }

  let create n = { mn = n; mw = max 1 (words_for n); bits = Array.make (max 1 (words_for n)) 0 }

  let set m i = m.bits.(i / bits_per_word) <- m.bits.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

  let mem m i = m.bits.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

  let of_pred n p =
    let m = create n in
    for i = 0 to n - 1 do
      if p i then set m i
    done;
    m

  let of_list n l =
    let m = create n in
    List.iter (fun i -> set m i) l;
    m

  let complement m =
    let c = create m.mn in
    for k = 0 to m.mw - 1 do
      c.bits.(k) <- lnot m.bits.(k)
    done;
    (* Clear the slack bits past n so counts and iteration stay sane. *)
    let last = m.mn mod bits_per_word in
    if last <> 0 then c.bits.(m.mw - 1) <- c.bits.(m.mw - 1) land ((1 lsl last) - 1);
    c

  let inter a b =
    let c = create a.mn in
    for k = 0 to a.mw - 1 do
      c.bits.(k) <- a.bits.(k) land b.bits.(k)
    done;
    c

  let count m = Array.fold_left (fun acc word -> acc + popcount word) 0 m.bits

  let iter f m =
    for k = 0 to m.mw - 1 do
      iter_bits f m.bits.(k) (k * bits_per_word)
    done

  let to_list m =
    let acc = ref [] in
    iter (fun i -> acc := i :: !acc) m;
    List.rev !acc
end

let create n = { n; w = max 1 (words_for n); rows = Array.make (max 1 n * max 1 (words_for n)) 0 }

let size t = t.n

let copy t = { t with rows = Array.copy t.rows }

let clear t = Array.fill t.rows 0 (Array.length t.rows) 0

let add t a b =
  let i = (a * t.w) + (b / bits_per_word) in
  t.rows.(i) <- t.rows.(i) lor (1 lsl (b mod bits_per_word))

let remove t a b =
  let i = (a * t.w) + (b / bits_per_word) in
  t.rows.(i) <- t.rows.(i) land lnot (1 lsl (b mod bits_per_word))

let mem t a b = t.rows.((a * t.w) + (b / bits_per_word)) land (1 lsl (b mod bits_per_word)) <> 0

let is_empty t = Array.for_all (fun word -> word = 0) t.rows

let cardinal t = Array.fold_left (fun acc word -> acc + popcount word) 0 t.rows

let equal a b = a.n = b.n && a.rows = b.rows

let union_into ~into t =
  for i = 0 to Array.length t.rows - 1 do
    into.rows.(i) <- into.rows.(i) lor t.rows.(i)
  done

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let union_all n rs =
  let r = create n in
  List.iter (fun s -> union_into ~into:r s) rs;
  r

let inter a b =
  let r = create a.n in
  for i = 0 to Array.length a.rows - 1 do
    r.rows.(i) <- a.rows.(i) land b.rows.(i)
  done;
  r

let diff a b =
  let r = create a.n in
  for i = 0 to Array.length a.rows - 1 do
    r.rows.(i) <- a.rows.(i) land lnot b.rows.(i)
  done;
  r

let or_row_into ~into dst_row src src_row =
  let d = dst_row * into.w and s = src_row * src.w in
  for k = 0 to into.w - 1 do
    into.rows.(d + k) <- into.rows.(d + k) lor src.rows.(s + k)
  done

let iter_succ t a f =
  let base = a * t.w in
  for k = 0 to t.w - 1 do
    iter_bits f t.rows.(base + k) (k * bits_per_word)
  done

let compose a b =
  let r = create a.n in
  for i = 0 to a.n - 1 do
    iter_succ a i (fun j -> or_row_into ~into:r i b j)
  done;
  r

let inverse t =
  let r = create t.n in
  for a = 0 to t.n - 1 do
    iter_succ t a (fun b -> add r b a)
  done;
  r

let cross dom rng =
  let n = (fun (m : Mask.m) -> m.Mask.mn) dom in
  let r = create n in
  Mask.iter
    (fun a ->
      let base = a * r.w in
      for k = 0 to r.w - 1 do
        r.rows.(base + k) <- rng.Mask.bits.(k)
      done)
    dom;
  r

let restrict t ~domain ~range =
  let r = create t.n in
  for a = 0 to t.n - 1 do
    if Mask.mem domain a then
      for k = 0 to t.w - 1 do
        r.rows.((a * r.w) + k) <- t.rows.((a * t.w) + k) land range.Mask.bits.(k)
      done
  done;
  r

let remove_diagonal t =
  let r = copy t in
  for a = 0 to t.n - 1 do
    remove r a a
  done;
  r

let filter f t =
  let r = create t.n in
  for a = 0 to t.n - 1 do
    iter_succ t a (fun b -> if f a b then add r a b)
  done;
  r

let transitive_closure_in_place t =
  for k = 0 to t.n - 1 do
    for i = 0 to t.n - 1 do
      if mem t i k then or_row_into ~into:t i t k
    done
  done

let transitive_closure t =
  let r = copy t in
  transitive_closure_in_place r;
  r

let reflexive_transitive_closure t =
  let r = transitive_closure t in
  for i = 0 to t.n - 1 do
    add r i i
  done;
  r

let is_irreflexive t =
  let ok = ref true in
  for a = 0 to t.n - 1 do
    if mem t a a then ok := false
  done;
  !ok

exception Cycle

let is_acyclic t =
  (* 0 = unvisited, 1 = on the DFS stack, 2 = done. *)
  let state = Bytes.make (max 1 t.n) '\000' in
  let rec visit a =
    match Bytes.get state a with
    | '\001' -> raise Cycle
    | '\002' -> ()
    | _ ->
        Bytes.set state a '\001';
        iter_succ t a visit;
        Bytes.set state a '\002'
  in
  try
    for a = 0 to t.n - 1 do
      visit a
    done;
    true
  with Cycle -> false

let iter f t =
  for a = 0 to t.n - 1 do
    iter_succ t a (fun b -> f a b)
  done

let fold f t init =
  let acc = ref init in
  iter (fun a b -> acc := f a b !acc) t;
  !acc

let of_list n pairs =
  let r = create n in
  List.iter (fun (a, b) -> add r a b) pairs;
  r

let to_list t = List.rev (fold (fun a b acc -> (a, b) :: acc) t [])

let pp fmt t =
  Format.fprintf fmt "{%s}"
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) (to_list t)))
