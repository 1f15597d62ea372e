(** Resource versions — the rows of the paper's Table 1.

    A resource is one concrete implementation ("version") of a
    functional-unit class; several versions of the same class differ in
    area (abstract units), delay (clock cycles) and reliability
    (mission success probability, in (0, 1]). *)

type op_class = Add | Mul
(** Functional-unit classes the library carries versions for.
    Subtractions and comparisons in benchmark DFGs execute on
    adder-class units, as is conventional for these HLS benchmarks. *)

type t = {
  id : string;  (** unique short id, e.g. ["add1"] *)
  display : string;  (** Table-1 row name, e.g. ["Adder 1"] *)
  op_class : op_class;
  architecture : string;
      (** [Rchls_circuits.Catalog] id realizing this version, e.g.
          ["rca"]; informative only at the HLS level *)
  area : int;  (** area units (Table 1 column 2) *)
  delay : int;  (** latency in clock cycles (Table 1 column 3) *)
  reliability : float;  (** per-operation success probability *)
}

val class_name : op_class -> string
val class_of_name : string -> op_class option

val validate : t -> (unit, string) result
(** Positive area/delay, reliability in (0, 1] (so neither [nan] nor an
    infinity), non-empty id. *)

val pp : Format.formatter -> t -> unit
(** ["add1 (Adder 1): class=add area=1 delay=2 R=0.99900"]. *)

val compare_by_reliability : t -> t -> int
(** Descending reliability; ties broken by smaller area, then smaller
    delay, then id — the allocation order of the synthesis algorithm's
    initial solution. *)
