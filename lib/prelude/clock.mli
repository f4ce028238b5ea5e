(** The one clock every duration and deadline reads.

    Request budgets, trace spans, engine and compile timings, latency
    rings and idle timeouts all subtract two readings of this clock.
    It is monotonic ([CLOCK_MONOTONIC] via bechamel's noalloc stub), so
    an NTP step or a manual clock change can neither stretch a budget
    nor produce a negative elapsed time. Readings are only meaningful
    relative to each other: the origin is unspecified (typically boot). *)

val now : unit -> float
(** Seconds since an unspecified fixed origin; never decreases. *)
