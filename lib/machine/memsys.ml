(* Cache line states of a simple invalidation protocol. *)
type state = Invalid | Shared | Exclusive

type t = {
  timing : Timing.t;
  cores : int;
  (* Slot [set * cores + core] is [core]'s entry for [set]: [tags] holds
     the line number there and [states] its state.  The cores' entries
     for one set are adjacent, so a probe of every core's copy reads one
     or two host cache lines. *)
  tags : int array;
  states : state array;
  mutable bus_free_at : int;
  mutable transactions : int;
  mutable bus_wait : int;
  loads : int array;  (** Per core. *)
  misses : int array;
}

let create timing ~cores =
  {
    timing;
    cores;
    tags = Array.make (timing.Timing.cache_lines * cores) (-1);
    states = Array.make (timing.Timing.cache_lines * cores) Invalid;
    bus_free_at = 0;
    transactions = 0;
    bus_wait = 0;
    loads = Array.make cores 0;
    misses = Array.make cores 0;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.states 0 (Array.length t.states) Invalid;
  t.bus_free_at <- 0;
  t.transactions <- 0;
  t.bus_wait <- 0;
  Array.fill t.loads 0 t.cores 0;
  Array.fill t.misses 0 t.cores 0

let line_of t loc = loc lsr t.timing.Timing.line_shift

(* The first slot of the line's set.  The helpers below take it as
   well as the line; it is computed once per access. *)
let set_base t line = (line mod t.timing.Timing.cache_lines) * t.cores

let holds t core line base =
  if t.tags.(base + core) = line then t.states.(base + core) else Invalid

let set_state t core line base st =
  t.tags.(base + core) <- line;
  t.states.(base + core) <- st

let invalidate_others t core line base =
  for other = 0 to t.cores - 1 do
    if other <> core && t.tags.(base + other) = line then t.states.(base + other) <- Invalid
  done

(* Acquire the bus at [now]: returns the grant time and accounts for
   the wait.  Transactions are serialised, which is what couples the
   cores' barrier activity; the request queue is bounded at one
   outstanding transaction per core, so a burst of queued store
   drains cannot starve later requests indefinitely. *)
let bus_grant t now =
  let cap = t.timing.Timing.bus_occupancy_cycles * t.cores in
  let backlog = Int.min t.bus_free_at (now + cap) in
  let grant = Int.max now backlog in
  t.bus_wait <- t.bus_wait + (grant - now);
  t.bus_free_at <- Int.max t.bus_free_at (grant + t.timing.Timing.bus_occupancy_cycles);
  t.transactions <- t.transactions + 1;
  grant

(* The first other core that holds the line, or -1. *)
let remote_holder t core line base =
  let found = ref (-1) and other = ref 0 in
  while !found < 0 && !other < t.cores do
    let o = !other in
    if o <> core && holds t o line base <> Invalid then found := o;
    incr other
  done;
  !found

(* A remote copy held Exclusive is dirty: it comes by cache-to-cache
   transfer. *)
let remote_exclusive t holder line base = holder >= 0 && holds t holder line base = Exclusive

let load t ~core ~loc ~now =
  let tm = t.timing in
  let line = line_of t loc in
  let base = set_base t line in
  t.loads.(core) <- t.loads.(core) + 1;
  match holds t core line base with
  | Shared | Exclusive -> now + tm.Timing.l1_hit_cycles
  | Invalid ->
      t.misses.(core) <- t.misses.(core) + 1;
      let grant = bus_grant t now in
      let holder = remote_holder t core line base in
      let transfer =
        if remote_exclusive t holder line base then begin
          (* Dirty in another cache: both end Shared. *)
          set_state t holder line base Shared;
          tm.Timing.remote_transfer_cycles
        end
        else if holder >= 0 then tm.Timing.l2_hit_cycles
        else tm.Timing.memory_cycles
      in
      set_state t core line base Shared;
      grant + transfer

let store_drain t ~core ~loc ~now =
  let tm = t.timing in
  let line = line_of t loc in
  let base = set_base t line in
  match holds t core line base with
  | Exclusive -> now + tm.Timing.sb_drain_owned_cycles
  | (Shared | Invalid) as held ->
      (* Upgrade: bus transaction to invalidate other copies, plus a
         fetch when we do not hold the line at all. *)
      let grant = bus_grant t now in
      let cost =
        if held = Shared then tm.Timing.sb_drain_shared_cycles
        else
          tm.Timing.sb_drain_shared_cycles
          + (if remote_exclusive t (remote_holder t core line base) line base then
               tm.Timing.remote_transfer_cycles
             else tm.Timing.l2_hit_cycles)
      in
      invalidate_others t core line base;
      set_state t core line base Exclusive;
      grant + cost

let bus_transactions t = t.transactions
let bus_wait_cycles t = t.bus_wait
let loads t ~core = t.loads.(core)
let misses t ~core = t.misses.(core)
