(** Input resolution shared by the CLI, the serve daemon and the
    benchmark harness.

    Historically each entry point re-implemented "benchmark name or
    [.dfg] file path" resolution; this module is the single copy.  The
    [*_of_source] functions extend the same rules to the typed
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

val graph_of_source :
  Rchls_api.Request.source -> (Rchls_dfg.Dfg.t, string) result
(** [Named spec] resolves exactly like {!load_graph}; [Inline text]
    parses the carried [.dfg] text. *)

val library_of_source :
  Rchls_api.Request.library_source -> (Rchls_charlib.Library.t, string) result
(** [Lib_default] is Table 1, [Lib_file] loads a server-side path,
    [Lib_inline] parses the carried text. *)
