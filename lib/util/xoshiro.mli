(** Deterministic PRNG: xoshiro256** seeded via splitmix64.

    All randomness in the repository flows through this module so that every
    experiment and every property test is reproducible from an integer seed. *)

type t

val create : int -> t
(** [create seed] builds an independent generator from [seed]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val string : t -> int -> string
(** [string t len] is a random lowercase ASCII string of length [len]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
