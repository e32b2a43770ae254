(* Deterministic PRNG (xoshiro256** with splitmix64 seeding).

   All randomness in the repository flows through this module so that every
   experiment and test is reproducible from a single integer seed.

   The four 64-bit state words live unboxed in one 32-byte buffer, read and
   written with the little-endian int64 accessors, so a draw allocates
   nothing. The layout must not change the sequence: every seeded
   experiment depends on it, and test_util pins the first draws of two
   seeds. *)

type t = Bytes.t

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int64_le t (8 * w) (splitmix64 state)
  done;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next_int64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 (logxor s2 tmp);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

(* Non-negative 62-bit int. *)
let[@inline] next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Xoshiro.int: bound must be positive";
  next_int t mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 random bits mapped to [0, 1). *)
  x /. 9007199254740992.0 *. bound

let string t len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (97 + (next_int t mod 26)))
  done;
  Bytes.unsafe_to_string b

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
