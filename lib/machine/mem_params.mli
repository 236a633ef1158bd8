(** Memory-system parameters of the Convex C-240 (paper §2 and §3.2).

    The standard configuration has 32 interleaved banks of 8-byte words
    with an 8-cycle bank cycle time; each of the four CPUs owns one memory
    port able to accept one access per 40 ns clock.  Dynamic memory
    refreshes every 16 µs (400 cycles) for 8 cycles — a potential 2%
    penalty on code that keeps the memory port saturated. *)

type t = {
  banks : int;  (** interleaved banks; 32 in the standard system *)
  word_bytes : int;  (** 8-byte memory words *)
  bank_busy_cycles : int;  (** bank cycle time, 8 clocks *)
  refresh_period : int;  (** cycles between refreshes, 400 *)
  refresh_duration : int;  (** cycles a refresh blocks the banks, 8 *)
  ports : int;
      (** memory ports: one per CPU plus one for I/O, so [ports - 1]
          CPUs share the banks in {!Convex_vpsim.Cosim} *)
}

val c240 : t

val leap_horizon : t -> start:int -> span:int -> int
(** Safe upper bound on the last cycle an analytical leap starting at
    [start] with an unslipped span of [span] cycles can touch, counting
    the worst-case refresh slips the stream could absorb.  Used to size
    the {!Convex_fault.Fault.quiescent} range a leap must prove. *)

val refresh_factor : t -> float
(** The multiplicative penalty the MACS bound applies to saturated memory
    chime groups: [1 + duration / period] — 1.02 for the C-240. *)

val no_refresh : t -> t
(** Ablation: refresh disabled (period made effectively infinite). *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
