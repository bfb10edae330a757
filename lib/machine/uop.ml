type t =
  | Busy of int
  | Load of int
  | Store of int
  | Load_acquire of int
  | Store_release of int
  | Fence_full
  | Fence_store
  | Fence_load
  | Fence_lw
  | Fence_pipeline
  | Branch
  | Spin of int
  | Spin_light of int
  | Nops of int
  | Counter_shared of int
  | Counter_private of int

let pp fmt = function
  | Busy n -> Format.fprintf fmt "busy(%d)" n
  | Load l -> Format.fprintf fmt "ld[%d]" l
  | Store l -> Format.fprintf fmt "st[%d]" l
  | Load_acquire l -> Format.fprintf fmt "ldar[%d]" l
  | Store_release l -> Format.fprintf fmt "stlr[%d]" l
  | Fence_full -> Format.pp_print_string fmt "fence.full"
  | Fence_store -> Format.pp_print_string fmt "fence.st"
  | Fence_load -> Format.pp_print_string fmt "fence.ld"
  | Fence_lw -> Format.pp_print_string fmt "fence.lw"
  | Fence_pipeline -> Format.pp_print_string fmt "fence.pipe"
  | Branch -> Format.pp_print_string fmt "branch"
  | Spin n -> Format.fprintf fmt "spin(%d)" n
  | Spin_light n -> Format.fprintf fmt "spin-light(%d)" n
  | Nops n -> Format.fprintf fmt "nops(%d)" n
  | Counter_shared p -> Format.fprintf fmt "ctr.shared(%d)" p
  | Counter_private p -> Format.fprintf fmt "ctr.private(%d)" p

let is_fence = function
  | Fence_full | Fence_store | Fence_load | Fence_lw | Fence_pipeline -> true
  | _ -> false

let is_memory = function
  | Load _ | Store _ | Load_acquire _ | Store_release _ | Counter_shared _
  | Counter_private _ ->
      true
  | _ -> false

module Kind = struct
  type t =
    | Busy
    | Load
    | Store
    | Load_acquire
    | Store_release
    | Fence_full
    | Fence_store
    | Fence_load
    | Fence_lw
    | Fence_pipeline
    | Branch
    | Spin
    | Spin_light
    | Nops
    | Counter_shared
    | Counter_private
end

(* A packed uop is [arg lsl 4 lor tag], where [tag] is the constructor's
   position in [t]. *)
type packed = int

let tag_bits = 4

let tag : Kind.t -> int = function
  | Busy -> 0
  | Load -> 1
  | Store -> 2
  | Load_acquire -> 3
  | Store_release -> 4
  | Fence_full -> 5
  | Fence_store -> 6
  | Fence_load -> 7
  | Fence_lw -> 8
  | Fence_pipeline -> 9
  | Branch -> 10
  | Spin -> 11
  | Spin_light -> 12
  | Nops -> 13
  | Counter_shared -> 14
  | Counter_private -> 15

let kinds : Kind.t array =
  [|
    Busy; Load; Store; Load_acquire; Store_release; Fence_full; Fence_store; Fence_load;
    Fence_lw; Fence_pipeline; Branch; Spin; Spin_light; Nops; Counter_shared; Counter_private;
  |]

let max_arg = max_int asr tag_bits
let min_arg = min_int asr tag_bits

let make k arg =
  if (arg lsl tag_bits) asr tag_bits <> arg then
    invalid_arg (Printf.sprintf "Uop.make: argument %d out of range" arg);
  (arg lsl tag_bits) lor tag k

let kind w = Array.unsafe_get kinds (w land 15)
let arg w = w asr tag_bits

let pack = function
  | Busy n -> make Busy n
  | Load l -> make Load l
  | Store l -> make Store l
  | Load_acquire l -> make Load_acquire l
  | Store_release l -> make Store_release l
  | Fence_full -> make Fence_full 0
  | Fence_store -> make Fence_store 0
  | Fence_load -> make Fence_load 0
  | Fence_lw -> make Fence_lw 0
  | Fence_pipeline -> make Fence_pipeline 0
  | Branch -> make Branch 0
  | Spin n -> make Spin n
  | Spin_light n -> make Spin_light n
  | Nops n -> make Nops n
  | Counter_shared p -> make Counter_shared p
  | Counter_private p -> make Counter_private p

let unpack w : t =
  let a = arg w in
  match kind w with
  | Busy -> Busy a
  | Load -> Load a
  | Store -> Store a
  | Load_acquire -> Load_acquire a
  | Store_release -> Store_release a
  | Fence_full -> Fence_full
  | Fence_store -> Fence_store
  | Fence_load -> Fence_load
  | Fence_lw -> Fence_lw
  | Fence_pipeline -> Fence_pipeline
  | Branch -> Branch
  | Spin -> Spin a
  | Spin_light -> Spin_light a
  | Nops -> Nops a
  | Counter_shared -> Counter_shared a
  | Counter_private -> Counter_private a

let pack_list l = Array.of_list (List.map pack l)
