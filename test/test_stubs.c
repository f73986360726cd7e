/* Test-only stubs: drop a file's pages from the page cache, so a test
 * can make a read of it need the disk. */

#define _GNU_SOURCE

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/unixsupport.h>
#include <fcntl.h>
#include <unistd.h>
#include <errno.h>

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
