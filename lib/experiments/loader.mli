(** Input resolution shared by the CLI, the serve daemon and the
    benchmark harness.

    Historically each entry point re-implemented "benchmark name or
    [.dfg] file path" resolution; this module is the single copy.  The
    [*_input] functions extend the same rules to the typed
    {!Rchls_api.Request} sources, so a job means the same thing
    whether it arrives as a CLI argument or on the serve socket.

    Everything here is total: load failures, unreadable paths (a
    directory, a permission error) included, come back as
    [Error message], never as exceptions. *)

val read_file : string -> (string, string) result
(** The whole file; [Error] names the path and the system error. *)

val load_graph : string -> (Rchls_dfg.Dfg.t, string) result
(** Resolve a CLI [GRAPH] argument: a built-in benchmark name
    ([fig4], [fir16], [ewf], [diffeq], [iir], [ar]) wins, otherwise
    the argument is parsed as a [.dfg] file path. *)

val load_library :
  string option -> (Rchls_charlib.Library.t, string) result
(** [None] is the paper's Table-1 library; [Some path] parses a
    library file. *)

(** {1 Request sources} *)

(** Where a source's value comes from: a built-in value, named, or the
    exact text it parses from (inline, or a file's contents as read
    now). *)
type 'a input = Builtin of string * 'a | Text of string

val graph_input :
  Rchls_api.Request.source -> (Rchls_dfg.Dfg.t input, string) result
(** [Named spec] is a built-in benchmark when {!Rchls_dfg.Benchmarks.find}
    knows it, otherwise the file's text; [Inline text] is the text.
    [Error] exactly as {!load_graph}. *)

val library_input :
  Rchls_api.Request.library_source ->
  (Rchls_charlib.Library.t input, string) result
(** [Lib_default] is the built-in Table 1 (named ["table1"]), [Lib_file]
    the file's text, [Lib_inline] the text. *)

val value_of :
  (string -> ('a, string) result) -> 'a input -> ('a, string) result
(** The built-in value, or the text parsed. *)

val covers : Rchls_dfg.Dfg.t -> Rchls_charlib.Library.t -> (unit, string) result
(** [Ok ()] when [lib] has at least one version of every operation
    class [g] uses; otherwise an [Error] naming the missing class and
    the first node (in node order) that needs it.  The synthesis
    engine requires this and raises without it. *)
