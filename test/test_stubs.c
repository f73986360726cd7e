/* Test-only stubs: drop a file's pages from the page cache, so a test
 * can make a read of it need the disk, and ask whether a non-blocking
 * read of it still gets its bytes. */

#define _GNU_SOURCE

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/unixsupport.h>
#include <fcntl.h>
#include <unistd.h>
#include <errno.h>
#include <stdlib.h>
#include <sys/uio.h>

/* fsync first: dirty pages stay resident whatever the advice. */
CAMLprim value flash_test_drop_cache(value vfd)
{
  CAMLparam1(vfd);
  int fd = Int_val(vfd);
  int err;

  if (fsync(fd) == -1) caml_uerror("fsync", Nothing);
  err = posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  if (err != 0) {
    errno = err;
    caml_uerror("posix_fadvise", Nothing);
  }
  CAMLreturn(Val_unit);
}

/* One raw preadv2(RWF_NOWAIT) of the file's first len bytes: true when
 * the kernel returns them all.  A refused read still starts readahead
 * of the pages it wanted.  False where the build lacks RWF_NOWAIT. */
CAMLprim value flash_test_nowait_reads(value vfd, value vlen)
{
  CAMLparam2(vfd, vlen);
  int all = 0;
#ifdef RWF_NOWAIT
  size_t len = (size_t) Long_val(vlen);
  char *buf = malloc(len > 0 ? len : 1);
  struct iovec iov;

  if (buf == NULL) caml_raise_out_of_memory();
  iov.iov_base = buf;
  iov.iov_len = len;
  all = preadv2(Int_val(vfd), &iov, 1, 0, RWF_NOWAIT) == (ssize_t) len;
  free(buf);
#else
  (void) vfd;
  (void) vlen;
#endif
  CAMLreturn(Val_bool(all));
}
