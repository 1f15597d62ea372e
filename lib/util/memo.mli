(** A bounded, thread-safe memo table for exact caches.

    Every in-process memo of the system is one of these: the engine's
    design and schedule tables, the per-(graph, library, scheduler)
    registry of engine caches, the resolve memo, the daemon's memory
    tier and the fault-campaign report memo.  (The disk tier,
    {!Diskcache}, is a file store whose eviction lives on disk, and
    stays apart.)

    Keys are compared exactly (structural equality), so a lookup
    returns the value stored under an equal key or nothing — never
    another key's value.  Callers only store values that are a
    deterministic function of their key, so an eviction costs a
    recomputation and never changes a result.

    {b Bounds and the one eviction policy.}  A memo has an entry bound
    and a byte bound; a caller-supplied O(1) [cost] estimates the
    bytes one entry holds.  A memo of [shards] shards gives each shard
    [max_entries / shards] entries and [max_bytes / shards] bytes.
    When an insert would take its shard past either share, the shard
    is cleared whole first; an entry whose cost alone passes the
    share is never stored.  The memo as a whole therefore never holds
    more than [max_entries] entries or [max_bytes] bytes.

    {b Sharding.}  Each shard has its own lock, so domains working on
    one memo contend only when their keys land in one shard.

    {b Telemetry.}  A memo named [NAME] counts [NAME.hits] and
    [NAME.misses] per lookup (unless created with [~lookups:false],
    for an owner that already counts its own outcomes) and adds the
    entries each bound-triggered clear drops to [NAME.evictions]
    ({!clear} is the owner's decision and counts nothing).  With
    [~gauge:true] it also sets the gauge [NAME.entries] to its entry
    count after every change — meant for memos that live as long as
    the process, since a memo dropped by the garbage collector never
    clears its gauge. *)

type ('k, 'v) t

val create :
  ?shards:int ->
  ?lookups:bool ->
  ?gauge:bool ->
  ?max_bytes:int ->
  ?cost:('k -> 'v -> int) ->
  name:string ->
  max_entries:int ->
  unit ->
  ('k, 'v) t
(** [shards] (default 1) must be a power of two; [lookups] defaults
    to [true] and [gauge] to [false].  Without [max_bytes] (default
    [max_int]) and [cost] (default 0 bytes) only the entry bound
    applies.  Raises [Invalid_argument] on a bad [shards] or a
    negative bound. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The value stored under the key, counting a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Store a value under a key not yet held (a held key keeps its
    value), clearing the key's shard first if the insert would pass a
    bound. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** {!find}, and on a miss compute the value outside every lock and
    {!add} it.  When another thread stored the key meanwhile, its
    value is returned, so every caller shares one value per key. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry. *)

val length : ('k, 'v) t -> int
(** Entries held. *)

val bytes : ('k, 'v) t -> int
(** The summed cost of the entries held. *)
