/* writev(2) over Bigarray-backed slices, plus the mappings those
 * slices point into.
 *
 * The OCaml side hands us an array of slice records { buf; off; len }
 * where buf is a char Bigarray.  Bigarray data lives outside the OCaml
 * heap, so the base pointers collected while holding the runtime lock
 * stay valid after it is released for the syscall.
 *
 * A mapping made by flash_iovec_map is an externally managed Bigarray:
 * the GC never unmaps it.  Its owner calls flash_iovec_unmap exactly
 * once, which also empties the array (data NULL, dim 0), so a slice
 * left pointing at it fails the bounds check instead of reading freed
 * address space.
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/threads.h>

#ifdef _WIN32

CAMLprim value flash_iovec_available(value unit)
{
  (void) unit;
  return Val_false;
}

CAMLprim value flash_iovec_writev(value vfd, value vslices, value vn)
{
  (void) vfd; (void) vslices; (void) vn;
  caml_failwith("Iovec.writev: not available on this platform");
}

CAMLprim value flash_iovec_map(value vfd, value vlen)
{
  (void) vfd; (void) vlen;
  caml_failwith("Iovec.map: not available on this platform");
}

CAMLprim value flash_iovec_unmap(value vbuf)
{
  (void) vbuf;
  caml_invalid_argument("Iovec.unmap: not a mapping");
}

/* No mincore: every page counts as not resident. */
CAMLprim value flash_iovec_resident(value vbuf)
{
  return Val_bool(Caml_ba_array_val(vbuf)->dim[0] == 0);
}

#else

#include <caml/unixsupport.h>
#include <sys/mman.h>
#include <sys/uio.h>
#include <limits.h>
#include <stdint.h>
#include <unistd.h>
#include <errno.h>

/* Kept well under every platform's IOV_MAX; the OCaml side gathers at
 * most this many slices per call. */
#define FLASH_IOV_CAP 64

CAMLprim value flash_iovec_available(value unit)
{
  (void) unit;
  return Val_true;
}

CAMLprim value flash_iovec_writev(value vfd, value vslices, value vn)
{
  CAMLparam3(vfd, vslices, vn);
  struct iovec iov[FLASH_IOV_CAP];
  long n = Long_val(vn);
  long i;
  ssize_t ret;
  int fd = Int_val(vfd);

  if (n < 0) n = 0;
  if ((uintnat) n > Wosize_val(vslices)) n = Wosize_val(vslices);
  if (n > FLASH_IOV_CAP) n = FLASH_IOV_CAP;
#ifdef IOV_MAX
  if (n > IOV_MAX) n = IOV_MAX;
#endif
  for (i = 0; i < n; i++) {
    value s = Field(vslices, i); /* { buf : bigstring; off : int; len : int } */
    struct caml_ba_array *ba = Caml_ba_array_val(Field(s, 0));
    intnat off = Long_val(Field(s, 1));
    intnat len = Long_val(Field(s, 2));
    /* [off] and [len] are public mutable fields: the kernel must never
     * be pointed outside the buffer, nor into an unmapped one. */
    if (off < 0 || len < 0 || len > ba->dim[0] - off)
      caml_invalid_argument("Iovec.writev: slice outside its buffer");
    iov[i].iov_base = (char *) ba->data + off;
    iov[i].iov_len = len;
  }
  caml_release_runtime_system();
  ret = writev(fd, iov, (int) n);
  caml_acquire_runtime_system();
  if (ret == -1) caml_uerror("writev", Nothing);
  CAMLreturn(Val_long(ret));
}

CAMLprim value flash_iovec_map(value vfd, value vlen)
{
  CAMLparam2(vfd, vlen);
  intnat len = Long_val(vlen);
  void *addr;

  if (len <= 0) caml_invalid_argument("Iovec.map: length must be positive");
  addr = mmap(NULL, (size_t) len, PROT_READ, MAP_SHARED, Int_val(vfd), 0);
  if (addr == MAP_FAILED) caml_uerror("mmap", Nothing);
  CAMLreturn(caml_ba_alloc_dims(CAML_BA_CHAR | CAML_BA_C_LAYOUT
                                  | CAML_BA_EXTERNAL, 1, addr, len));
}

CAMLprim value flash_iovec_unmap(value vbuf)
{
  CAMLparam1(vbuf);
  struct caml_ba_array *ba = Caml_ba_array_val(vbuf);

  if ((ba->flags & CAML_BA_MANAGED_MASK) != CAML_BA_EXTERNAL
      || ba->data == NULL)
    caml_invalid_argument("Iovec.unmap: not a live mapping");
  if (munmap(ba->data, (size_t) ba->dim[0]) == -1)
    caml_uerror("munmap", Nothing);
  ba->data = NULL;
  ba->dim[0] = 0;
  CAMLreturn(Val_unit);
}

/* Whether every page under the buffer is in core, asked a chunk of
 * pages at a time so the vector stays on the stack. */
CAMLprim value flash_iovec_resident(value vbuf)
{
  CAMLparam1(vbuf);
  struct caml_ba_array *ba = Caml_ba_array_val(vbuf);
  unsigned char vec[1024];
  uintptr_t page = (uintptr_t) sysconf(_SC_PAGESIZE);
  uintptr_t start, stop, chunk = page * sizeof vec;
  size_t i, pages;

  if (ba->dim[0] == 0) CAMLreturn(Val_true);
  start = (uintptr_t) ba->data & ~(page - 1);
  stop = (uintptr_t) ba->data + (uintptr_t) ba->dim[0];
  while (start < stop) {
    uintptr_t len = stop - start < chunk ? stop - start : chunk;
    if (mincore((void *) start, len, (void *) vec) == -1)
      caml_uerror("mincore", Nothing);
    pages = (len + page - 1) / page;
    for (i = 0; i < pages; i++)
      if (!(vec[i] & 1)) CAMLreturn(Val_false);
    start += len;
  }
  CAMLreturn(Val_true);
}

#endif
