(** The persisted fuzz corpus: every interesting case the fuzzer ever
    found, replayed forever.

    A corpus is a {!Macs_util.Journal} file (format
    ["macs-fuzz-corpus"]), so writes are crash-safe (a torn tail from a
    killed fuzzer is repaired, never corrupting earlier entries) and
    appends are atomic per entry.  Each entry records what was being
    fuzzed ([kind]), on which machine, from which seed, the
    payload (a {!Codec} kernel or an assembly listing), and the
    expectation:

    - [expect = Violation check]: the case failed check [check] when it
      was committed; replay passes iff the check {e still} fails
      (regressions that silently fix themselves are suspicious too —
      the entry is updated or retired deliberately, not by accident);
    - [expect = Clean]: the case once failed and was then fixed; replay
      passes iff every check passes.

    [dune runtest] replays the committed corpus through
    {!Test_fuzz.corpus_replay}; [macs_cli fuzz --corpus] appends new
    shrunk counterexamples. *)

type kind = Kernel_case | Asm_case

val kind_name : kind -> string
(** ["kernel"] or ["asm"], as journaled. *)

val kind_of_name : string -> (kind, string) result

type expect = Clean | Violation of string  (** failing check id *)

type entry = {
  kind : kind;
  machine : string;
      (** a {!Convex_dsl.Machine_dsl} spec: the fuzzer writes
          {!Convex_machine.Machine.to_spec}; a preset name (older
          entries) parses too *)
  seed : int;  (** fuzzer seed that produced the case *)
  expect : expect;
  payload : string;  (** {!Codec} text or assembly listing *)
}

val format : string
(** The journal format tag, ["macs-fuzz-corpus"]. *)

val create : path:string -> unit
(** Write an empty corpus (header only). *)

val append : path:string -> entry -> unit
(** Append one entry; creates the corpus (with header) if [path] does
    not exist, repairs a torn tail if it does. *)

val load : path:string -> (entry list, string) result

val check_needs_sim : string -> bool
(** Whether a check id can only be evaluated with the simulator running
    (["sim"], ["oracle:*"], ["fault-sim:*"]) — used to pick the cheapest
    faithful replay and shrink predicate. *)

(** {1 Replay} *)

type replay = {
  entry : entry;
  ok : bool;
  detail : string;  (** what happened, for the failure message *)
}

val replay_entry :
  ?sim:bool -> entry -> replay
(** Re-run one entry's oracle stack on its recorded machine and compare
    against its expectation.  [sim] defaults to [true]; kernels whose
    expectation concerns only functional checks replay with [sim:false]
    cheaply. *)

val replay : ?sim:bool -> path:string -> unit -> (replay list, string) result
(** Load and replay a whole corpus file. *)
