(** K-way merge of sorted entry runs with version shadowing.

    Inputs are sorted by {!Util.Kv.compare_entry}; older versions of a key
    are dropped, tombstones only when [drop_tombstones] (output lands at the
    bottom of the tree). Merge CPU is charged to the virtual clock. *)

type stats = {
  input_entries : int;
  output_entries : int;
  dropped_versions : int;
  dropped_tombstones : int;
}

type source = unit -> Util.Kv.entry option
(** One sorted input run, pulled an entry at a time ([None] once dry). *)

val of_list : Util.Kv.entry list -> source

val merge_stream :
  ?drop_tombstones:bool ->
  clock:Sim.Clock.t ->
  source list ->
  (Util.Kv.entry -> unit) ->
  stats
(** Merge the sources, handing each surviving entry to the callback in
    order. The merge CPU of every input entry is charged once, after the
    last one. *)

val merge :
  ?drop_tombstones:bool ->
  clock:Sim.Clock.t ->
  Util.Kv.entry list list ->
  Util.Kv.entry list * stats
(** {!merge_stream} over lists, collecting the output. *)

type cutter
(** Slice boundaries of a sorted run: consecutive slices of at most
    [target_bytes] (or one entry), never splitting one key's versions. *)

val cutter : target_bytes:int -> cutter

val starts_slice : cutter -> Util.Kv.entry -> bool
(** Feed the run's next entry; [true] when it opens a new slice (always
    for the first entry). *)

val split_run : target_bytes:int -> Util.Kv.entry list -> Util.Kv.entry list list
(** A sorted run cut into its {!cutter} slices. *)

val cpu_per_entry_ns : float
val cpu_per_byte_ns : float
