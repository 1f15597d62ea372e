(** Bit-parallel logic simulation: 63 vectors per evaluation.

    A packed state carries one native [int] per net, each bit position
    ("lane") holding the net's value under a different input vector, so
    a single topological sweep with bitwise gate operations evaluates
    up to {!lanes} vectors at once — the workhorse of the fault-injection
    campaign engine, ~60x the throughput of the scalar {!Eval}.

    Lane semantics are purely positional: lane [l] of every packed word
    is the scalar simulation of the input vector formed by bit [l] of
    each packed input.  Unused high lanes are well-defined (they carry
    the all-zeroes input vector) but callers should mask them with
    {!lane_mask} before counting. *)

type state
(** Reusable packed simulation state (one [int] per net). *)

val lanes : int
(** Vectors evaluated per sweep: 63 (the tag-free bits of a native
    [int] on 64-bit platforms). *)

val lane_mask : int -> int
(** [lane_mask n] has the low [n] bits set, for [0 <= n <= lanes]. *)

val popcount : int -> int
(** Number of set bits (Kernighan loop; at most {!lanes} iterations). *)

val create : Netlist.t -> state
(** Allocate packed simulation state. *)

val run : state -> int array -> int array
(** [run st ins] evaluates all lanes at once: [ins] gives, per primary
    input (in {!Netlist.inputs} order), the packed word of that input's
    value across lanes; the result is the packed output words in
    {!Netlist.outputs} order.  Lane [l] of the result equals
    [Eval.run] on the lane-[l] slice of [ins].  Raises
    [Invalid_argument] on input-width mismatch. *)

val upset : state -> flip_net:Netlist.net -> int array
(** [upset st ~flip_net] injects a single-event upset into the
    fault-free simulation that {!run} just left in [st]: it complements
    [flip_net] in every lane, re-evaluates only the gates after the
    net's driver in topological order (every gate, for an input or a
    constant), and returns the faulty packed output words.  Lane [l]
    equals {!Eval.run_with_flip} on the lane-[l] inputs of that run.
    The state then holds the faulty values, so the next upset needs a
    fresh {!run}.  Raises [Invalid_argument] if [st] holds no fault-free
    run (none yet, or already upset) or on an unknown net. *)

val net_value : state -> Netlist.net -> int
(** Packed value of a net after the last run.  Raises
    [Invalid_argument] if nothing has been simulated yet. *)
