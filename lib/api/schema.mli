(** Version tags and the field descriptors every [Rchls_api] codec is
    derived from.

    All public JSON surfaces of the system carry an explicit schema
    tag: the serve wire format and the CLI request/response records use
    {!api}, run reports ([--report json]) use {!run_report}, and the
    on-disk response-cache entries use {!cache_entry}.  A decoder that
    sees a different tag fails with a version error rather than guess —
    forward compatibility is handled by bumping the version, never by
    silently ignoring structure.

    A record is described once, as an ordered list of fields; its
    encoder and its decoder are both derived from that list, so the
    two directions cannot drift apart:

    {[
      let timing =
        seal
          (record (fun queue_ns exec_ns -> { queue_ns; exec_ns })
          |+ req "queue_ns" int (fun t -> t.queue_ns)
          |+ req "exec_ns" int (fun t -> t.exec_ns))
    ]}

    Decoding is {e strict}: an object carrying a field its descriptor
    does not declare, or a key twice, is rejected — a typo'd optional
    field ("strateggy") is an error, not a silently applied default.
    Decoders never raise; errors are path-prefixed messages. *)

module Json = Rchls_util.Json

val api : string
(** ["rchls.api/1"] — the request/response wire format. *)

val run_report : string
(** ["rchls.run_report/1"] — the [--report json] run-report object. *)

val cache_entry : string
(** ["rchls.cache_entry/1"] — one persisted response-cache file. *)

val is_version_error : string -> bool
(** Whether a decode error is the one {!versioned} reports for a
    foreign ["api"] tag — exactly that message, not any message
    mentioning it.  The serve layer answers it with its own
    [unsupported_version] error code. *)

(** {1 Value codecs} *)

type 'a codec

val int : int codec
val float : float codec
val bool : bool codec
val string : string codec
val ints : int list codec
val strings : string list codec

val nullable : 'a codec -> 'a option codec
(** [None] is JSON [null].  For scalar codecs: a mismatch reports the
    scalar's type "or null". *)

val enum : ?noun:string -> (string * 'a) list -> 'a codec
(** A string from a closed name table.  An unknown name is an error
    listing the valid ones, or ["unknown <noun> <name>"] when [noun] is
    given. *)

val list : 'a codec -> 'a list codec
(** A list of objects; element errors carry the list field's path. *)

val assoc : 'a codec -> (string * 'a) list codec
(** An object with arbitrary keys (metric names), kept in order;
    duplicate keys are rejected, entry [k] of [path] reports errors as
    [path[k]]. *)

val rooted : 'a codec -> 'a codec
(** Decode under the field's own name as root path, as if the value
    were decoded alone (the response payload's errors read ["result"]
    wherever it is embedded). *)

(** {1 Records} *)

type 'a obj
(** A group of fields inside one JSON object. *)

type ('r, 'a) field
(** One ['a]-valued part of a record ['r]: its name(s), codec and
    presence, plus the getter that reads it out of the record. *)

val req : string -> 'a codec -> ('r -> 'a) -> ('r, 'a) field
(** Always encoded; decoding requires it. *)

val dflt : string -> 'a codec -> 'a -> ('r -> 'a) -> ('r, 'a) field
(** Always encoded; a missing field decodes to the default. *)

val opt : string -> 'a codec -> ('r -> 'a option) -> ('r, 'a option) field
(** Omitted when [None]; a missing field decodes to [None]. *)

val group : 'a obj -> ('r -> 'a) -> ('r, 'a) field
(** Several fields of the same object, e.g. a {!variant}. *)

type ('r, 'k) open_record

val record : 'k -> ('r, 'k) open_record
(** Start a record descriptor with its constructor, which takes the
    decoded fields in order. *)

val ( |+ ) : ('r, 'a -> 'k) open_record -> ('r, 'a) field -> ('r, 'k) open_record

val derived : string -> 'a codec -> ('r -> 'a) -> ('r, 'k) open_record -> ('r, 'k) open_record
(** A field computed from the record (use with [|>] between [|+]
    fields).  Encoded from the record; on decode it is required and
    must equal what the decoded record derives. *)

val seal : ('r, 'r) open_record -> 'r obj

val seal_with : (string -> 'k -> ('r, string) result) -> ('r, 'k) open_record -> 'r obj
(** Seal with a validating constructor; it gets the object's path for
    its error messages. *)

val const : string -> string -> 'a obj -> 'a obj
(** [const name value o] prepends the fixed string field [name]:
    encoded as [value], required equal to it on decode. *)

val versioned : 'a obj -> 'a obj
(** [const "api" api], whose mismatch is the version error. *)

val obj : 'a obj -> 'a codec
(** The group as one nested object. *)

val encode : 'a codec -> 'a -> Json.t

val decode : 'a codec -> what:string -> Json.t -> ('a, string) result
(** Decode a document root; [what] prefixes error messages. *)

(** {1 Variants} *)

type 'v case

val case : string -> 'a obj -> ('a -> 'v) -> ('v -> 'a option) -> 'v case
(** [case name fields inject project]: one constructor, its tag value
    and the object its payload is carried in. *)

val case_name : 'v case list -> 'v -> string
(** The tag value of the case a value belongs to. *)

val variant : tag:string -> noun:string -> 'v case list -> 'v obj
(** Tag and case fields share the enclosing object.  Once the tag has
    picked a case, a field that only other cases declare is an error;
    fields the enclosing record declares outside the variant are not
    affected. *)

val union : tag:string -> noun:string -> 'v case list -> 'v codec
(** One object per case, dispatched on the tag before its fields are
    checked, so each case accepts only its own fields. *)

val nested : tag:string -> body:string -> noun:string -> 'v case list -> 'v obj
(** Tag field plus a [body] object with the case's fields, omitted when
    empty; the body's errors are prefixed [<tag value>.<body>]. *)
