(** A persistent, resubmittable domain pool.

    A workqueue decouples task submission from worker lifetime: [jobs]
    worker domains are spawned once at {!create} and block on a shared
    queue until {!shutdown}.  Any thread - including several
    concurrently - may {!submit} work and {!await} its handle, so a
    long-running process (the [wmm_served] daemon) pays domain startup
    once and then feeds the same warm pool from every client request.
    One-shot batches use {!run}, which creates a queue for the batch
    and shuts it down after.

    Ordering is FIFO per queue but completion order is unspecified;
    callers that need deterministic output index results themselves
    (as {!Engine.run_all} does).  A submitted closure that raises has
    the exception captured and re-raised - original backtrace
    preserved - by whichever thread awaits its handle. *)

type t

val create : ?jobs:int -> unit -> t
(** Spawn the worker domains.  [jobs] defaults to
    [Domain.recommended_domain_count ()]; values [<= 0] also select
    the recommended count, and at least one worker always exists. *)

val jobs : t -> int
(** Number of worker domains. *)

val depth : t -> int
(** Closures currently queued (not yet claimed by a worker), at a
    point in time.  A {!run_indexed} batch queues at most [jobs t]
    closures however many indices it has, so this counts waiting
    closures, not waiting tasks. *)

val submitted : t -> int
(** Total closures submitted over the queue's lifetime ({!run_indexed}
    submits one per worker it uses, not one per index). *)

type 'a handle

val submit : t -> (unit -> 'a) -> 'a handle
(** Enqueue a closure for the pool.  Raises [Invalid_argument] after
    {!shutdown}. *)

val await : 'a handle -> 'a
(** Block until the closure has run; returns its value or re-raises
    its exception with the original backtrace.  Safe to call from any
    thread, any number of times. *)

exception Multiple_failures of string
(** Raised by {!run_indexed} and {!run} when more than one task
    raised: the message carries the count, the first exception, and
    the others in index order, so no failure is silently swallowed. *)

val run_indexed : t -> int -> (int -> unit) -> unit
(** [run_indexed t n f] runs [f 0 .. f (n-1)] on the pool and awaits
    them all: it submits [min n (jobs t)] closures, each claiming the
    next unclaimed index until none is left, and the calling thread
    blocks but performs no work itself.  When tasks raise, every task
    still runs; then exactly one failure re-raises the original
    exception (original backtrace) and several raise
    {!Multiple_failures}. *)

val shutdown : t -> unit
(** Drain: workers finish the tasks already queued, then exit and are
    joined.  Idempotent.  Submitting after shutdown is an error. *)

val run : jobs:int -> int -> (int -> unit) -> unit
(** [run ~jobs n f] is the one-shot batch the CLIs use: it applies [f]
    to every index in [0, n) across at most [jobs] worker domains of a
    queue created for the batch and shut down after it.  With
    [jobs <= 1] or [n <= 1] no domains are spawned and the body runs
    in a plain sequential loop - the scheduling strategy can never
    change results, only their arrival order.  [f] is expected not to
    raise; stray exceptions follow {!run_indexed}'s policy (the
    sequential loop stops at the first). *)
