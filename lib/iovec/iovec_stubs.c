/* writev(2) over Bigarray-backed slices, plus the buffers those slices
 * point into: file mappings and read copies.
 *
 * The OCaml side hands us an array of slice records { buf; off; len }
 * where buf is a char Bigarray.  Bigarray data lives outside the OCaml
 * heap, so the base pointers collected while holding the runtime lock
 * stay valid after it is released for the syscall.
 *
 * A mapping made by flash_iovec_map and a copy made by flash_iovec_read
 * or flash_iovec_read_cached are externally managed Bigarrays: the GC
 * never unmaps or frees them, and does not count their bytes towards
 * its major-heap pacing.  Their owner calls flash_iovec_unmap (a
 * mapping) or flash_iovec_free (a copy) exactly once, which also
 * empties the array (data NULL, dim 0), so a slice left pointing at it
 * fails the bounds check instead of reading freed memory.
 */

#define _GNU_SOURCE /* preadv2 and RWF_NOWAIT */

#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/threads.h>

static value alloc_external(void *data, intnat len)
{
  return caml_ba_alloc_dims(CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL,
                            1, data, len);
}

/* A copy of an OCaml string in a fresh GC-managed buffer: one memcpy. */
CAMLprim value flash_iovec_of_string(value vs)
{
  CAMLparam1(vs);
  CAMLlocal1(res);
  mlsize_t len = caml_string_length(vs);

  res = caml_ba_alloc_dims(CAML_BA_CHAR | CAML_BA_C_LAYOUT, 1, NULL,
                           (intnat) len);
  if (len > 0) memcpy(Caml_ba_data_val(res), String_val(vs), len);
  CAMLreturn(res);
}

/* Free a buffer from flash_iovec_read or flash_iovec_read_cached. */
CAMLprim value flash_iovec_free(value vbuf)
{
  struct caml_ba_array *ba = Caml_ba_array_val(vbuf);

  if ((ba->flags & CAML_BA_MANAGED_MASK) != CAML_BA_EXTERNAL
      || ba->data == NULL)
    caml_invalid_argument("Iovec.free: not a live read copy");
  free(ba->data);
  ba->data = NULL;
  ba->dim[0] = 0;
  return Val_unit;
}

#ifdef _WIN32

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

CAMLprim value flash_iovec_read(value vfd, value vlen)
{
  (void) vfd; (void) vlen;
  caml_failwith("Iovec.read: not available on this platform");
}

CAMLprim value flash_iovec_read_cached(value vtrust, value vfd, value vlen)
{
  (void) vtrust; (void) vfd; (void) vlen;
  return Val_none;
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
  CAMLreturn(alloc_external(addr, len));
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

/* Whether every page under [data, data + len) is in core: 1, 0, or -1
 * with errno set.  Asked a chunk of pages at a time so the vector stays
 * on the stack. */
static int all_resident(void *data, size_t len)
{
  unsigned char vec[1024];
  uintptr_t page = (uintptr_t) sysconf(_SC_PAGESIZE);
  uintptr_t start, stop, chunk = page * sizeof vec;
  size_t i, pages;

  start = (uintptr_t) data & ~(page - 1);
  stop = (uintptr_t) data + (uintptr_t) len;
  while (start < stop) {
    uintptr_t n = stop - start < chunk ? stop - start : chunk;
    if (mincore((void *) start, n, (void *) vec) == -1) return -1;
    pages = (n + page - 1) / page;
    for (i = 0; i < pages; i++)
      if (!(vec[i] & 1)) return 0;
    start += n;
  }
  return 1;
}

CAMLprim value flash_iovec_resident(value vbuf)
{
  CAMLparam1(vbuf);
  struct caml_ba_array *ba = Caml_ba_array_val(vbuf);
  int r;

  if (ba->dim[0] == 0) CAMLreturn(Val_true);
  r = all_resident(ba->data, (size_t) ba->dim[0]);
  if (r == -1) caml_uerror("mincore", Nothing);
  CAMLreturn(Val_bool(r));
}

/* Read the first [len] bytes of [fd] into [buf], up to end of file:
 * the count read, or -1 with errno set. */
static ssize_t read_full(int fd, char *buf, size_t len)
{
  size_t got = 0;

  while (got < len) {
    ssize_t n = pread(fd, buf + got, len - got, (off_t) got);
    if (n == -1 && errno == EINTR) continue;
    if (n == -1) return -1;
    if (n == 0) break;
    got += (size_t) n;
  }
  return (ssize_t) got;
}

CAMLprim value flash_iovec_read(value vfd, value vlen)
{
  CAMLparam2(vfd, vlen);
  intnat len = Long_val(vlen);
  int fd = Int_val(vfd);
  char *buf;
  ssize_t got;

  if (len <= 0) caml_invalid_argument("Iovec.read: length must be positive");
  buf = malloc((size_t) len);
  if (buf == NULL) caml_raise_out_of_memory();
  caml_release_runtime_system();
  got = read_full(fd, buf, (size_t) len);
  caml_acquire_runtime_system();
  if (got == -1) {
    int err = errno;
    free(buf);
    errno = err;
    caml_uerror("pread", Nothing);
  }
  CAMLreturn(alloc_external(buf, (intnat) got));
}

/* Where the kernel cannot say whether a read would block, ask mincore
 * through a probe mapping, then read: 1 when all [len] bytes were read,
 * 0 when a page is on disk or the file is shorter, -1 on a read error. */
static int probe_and_read(int fd, char *buf, size_t len)
{
  void *addr = mmap(NULL, len, PROT_READ, MAP_SHARED, fd, 0);
  int resident;
  ssize_t got;

  if (addr == MAP_FAILED) return 0;
  resident = all_resident(addr, len);
  munmap(addr, len);
  if (resident != 1) return 0;
  got = read_full(fd, buf, len);
  return got == -1 ? -1 : got == (ssize_t) len;
}

CAMLprim value flash_iovec_read_cached(value vtrust, value vfd, value vlen)
{
  CAMLparam3(vtrust, vfd, vlen);
  CAMLlocal1(res);
  intnat len = Long_val(vlen);
  int fd = Int_val(vfd);
  int trust_mincore = Bool_val(vtrust);
  int ok, err = 0;
  char *buf;

  if (len <= 0)
    caml_invalid_argument("Iovec.read_cached: length must be positive");
  buf = malloc((size_t) len);
  if (buf == NULL) caml_raise_out_of_memory();
  caml_release_runtime_system();
#ifdef RWF_NOWAIT
  {
    /* The kernel copies only what is in the page cache: EAGAIN, or a
     * short count, when a page is not (or the file is shorter). */
    struct iovec iov = { buf, (size_t) len };
    ssize_t n = preadv2(fd, &iov, 1, 0, RWF_NOWAIT);
    if (n != -1)
      ok = n == (ssize_t) len;
    else if (errno == EOPNOTSUPP || errno == ENOSYS || errno == EINVAL)
      /* A filesystem or kernel without non-blocking buffered reads. */
      ok = trust_mincore ? probe_and_read(fd, buf, (size_t) len) : 0;
    else
      ok = errno == EAGAIN || errno == EINTR ? 0 : -1;
  }
#else
  ok = trust_mincore ? probe_and_read(fd, buf, (size_t) len) : 0;
#endif
  if (ok == -1) err = errno;
  caml_acquire_runtime_system();
  if (ok != 1) {
    free(buf);
    if (ok == -1) {
      errno = err;
      caml_uerror("pread", Nothing);
    }
    CAMLreturn(Val_none);
  }
  res = alloc_external(buf, len);
  CAMLreturn(caml_alloc_some(res));
}

#endif
