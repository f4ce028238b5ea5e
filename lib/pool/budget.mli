(** Cooperative request budgets: the service's one budget mechanism.

    A budget is an absolute deadline on {!Rw_prelude.Clock} (monotonic)
    stored in domain-local state and polled explicitly ({!check}) from
    the engines' inner loops — the maxent optimizer's iterations, the
    enumerator's worlds, the Monte-Carlo sampler's draws and the
    profile counter's profiles. Expiry raises {!Expired}, which unwinds
    to whoever installed the deadline. Nothing is raised asynchronously,
    so expiry can only surface at a poll, never inside a cache insert
    or a memo fill between polls; and the mechanism works identically
    on the main domain and on pool worker domains.

    Deadlines nest by narrowing: an inner [with_deadline] can only
    shorten the time left, never extend an enclosing budget, and an
    inner expiry leaves a healthy outer deadline running.

    {!Pool.map} and {!Pool.async} propagate the submitting domain's
    deadline into every task they run, so a budget installed on the
    coordinating domain bounds the whole fan-out. *)

exception Expired
(** Raised by {!check} once the current deadline has passed. *)

val check : unit -> unit
(** Poll the current domain's deadline; raises {!Expired} when it has
    passed. Near-free when no deadline is installed (one domain-local
    read); with one installed, the clock is consulted every 64th call
    so the poll can sit in per-sample / per-world loops. *)

val with_deadline : seconds:float -> (unit -> 'a) -> 'a
(** [with_deadline ~seconds f] runs [f] with the current domain's
    deadline set to [now + seconds] — narrowed against any enclosing
    deadline — and restores the previous deadline on the way out,
    whether [f] returns or raises. [f] only observes the deadline
    through {!check}: cooperative, not preemptive. *)

val current : unit -> float option
(** The current domain's absolute deadline ({!Rw_prelude.Clock}
    seconds), if any — what {!Pool} captures at task submission to
    inherit budgets across domains. *)

val with_inherited : float option -> (unit -> 'a) -> 'a
(** [with_inherited d f] installs absolute deadline [d] (narrowed
    against any existing one) for the duration of [f]; [None] is a
    no-op. The worker-side half of deadline propagation. *)
