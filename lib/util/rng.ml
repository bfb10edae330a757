(* The four xoshiro256** state words s0..s3 live at byte offsets 0, 8,
   16 and 24 of one 32-byte buffer.  The [%caml_bytes_*64u] primitives
   read and write them unboxed, so advancing the generator allocates
   nothing; mutable [int64] record fields would box on every store. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64 is used only to expand the user seed into the four
   xoshiro256** state words, as recommended by the xoshiro authors:
   it guarantees the state is never all-zero and decorrelates nearby
   seeds. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed and t = Bytes.create 32 in
  for word = 0 to 3 do
    set t (8 * word) (splitmix64 state)
  done;
  t

let create seed = of_splitmix (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every caller in this module, so the result stays
   unboxed until it is narrowed to an int or a float. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let u = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (Int64.logxor s2 u);
  set t 24 (rotl s3 45);
  result

let int64 t = next t

let split t = of_splitmix (next t)

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling removes modulo bias; the retry probability is
   negligible for the bounds used here. *)
let rec int_below t bound =
  let r = bits t in
  let v = r mod bound in
  if r - v > (max_int lsr 2) * 4 - bound then int_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound

(* 53 high bits -> uniform double in [0, 1). *)
let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t = Int64.logand (next t) 1L = 1L

let rec nonzero_unit t =
  let u = unit_float t in
  if u > 0. then u else nonzero_unit t

let gaussian t ~mean ~std =
  let u1 = nonzero_unit t in
  let u2 = unit_float t in
  mean +. (std *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (nonzero_unit t) /. rate

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Rng.pareto: parameters must be positive";
  scale /. (nonzero_unit t ** (1. /. shape))

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~std:sigma)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
