/* CRC-32 kernel for Util.Crc32: zlib's crc32_z over a substring of an
   OCaml string. The OCaml side has already checked the range and the
   incoming crc, so the untagged entry point allocates nothing and never
   fails. */

#include <caml/mlvalues.h>
#include <zlib.h>

intnat pmb_crc32_update(intnat crc, value s, intnat pos, intnat len)
{
  return (intnat)crc32_z((uLong)crc, (const Bytef *)String_val(s) + pos, (z_size_t)len);
}

value pmb_crc32_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(pmb_crc32_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
