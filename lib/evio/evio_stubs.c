/* Readiness-notification stubs for the evio backends.
 *
 * Two families:
 *   - select(2) and poll(2) over the interest arrays the OCaml side
 *     keeps (fds, interest bits), rebuilt there only after a
 *     registration change.  Both fill a result array: interest bits
 *     are 1 = read, 2 = write, and result bits add 4 = invalid fd,
 *     which the caller uses to prune stale registrations (poll's
 *     POLLNVAL; for select, the fds an EBADF wait finds closed).
 *   - epoll(7), Linux only: level-triggered, interest kept in the
 *     kernel so a wait costs one syscall regardless of fd count.
 *
 * Every backend reports only the conditions an fd is watched for: an
 * error or hang-up surfaces as readable and, on a write-watched fd,
 * writable.  The waits release the OCaml runtime lock around the
 * syscall.  File descriptors cross the boundary as Unix.file_descr,
 * which the Unix runtime represents as a plain int on every
 * non-Windows platform (the Windows build reports every family
 * unavailable, so the representation assumption is never exercised
 * there).
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/threads.h>

#ifndef _WIN32
#include <sys/select.h>
#endif

#define EVIO_READ 1
#define EVIO_WRITE 2
#define EVIO_INVALID 4

/* The fd-number ceiling of select(2)'s fd_set, so the select backend
 * can refuse a registration it could never wait on instead of letting
 * the wait fail with EINVAL.  0 = no numeric cap (Windows fd_sets hold
 * socket handles, not a bitmap indexed by fd number). */
CAMLprim value flash_evio_fd_setsize(value unit)
{
  (void) unit;
#ifdef _WIN32
  return Val_int(0);
#else
  return Val_int(FD_SETSIZE);
#endif
}

#ifdef _WIN32

CAMLprim value flash_evio_poll_available(value unit)
{
  (void) unit;
  return Val_false;
}

CAMLprim value flash_evio_select(value vfds, value vevents, value vrevents,
                                 value vn, value vtimeout)
{
  (void) vfds; (void) vevents; (void) vrevents; (void) vn; (void) vtimeout;
  caml_failwith("Evio.select: not available on this platform");
}

CAMLprim value flash_evio_poll(value vfds, value vevents, value vrevents,
                               value vn, value vtimeout)
{
  (void) vfds; (void) vevents; (void) vrevents; (void) vn; (void) vtimeout;
  caml_failwith("Evio.poll: not available on this platform");
}

#else /* !_WIN32 */

#include <caml/unixsupport.h>
#include <poll.h>
#include <stdlib.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/time.h>

CAMLprim value flash_evio_poll_available(value unit)
{
  (void) unit;
  return Val_true;
}

/* The usable prefix of the three arrays. */
static long evio_count(value vfds, value vevents, value vrevents, value vn)
{
  long n = Long_val(vn);
  if (n < 0) n = 0;
  if ((uintnat) n > Wosize_val(vfds)) n = Wosize_val(vfds);
  if ((uintnat) n > Wosize_val(vevents)) n = Wosize_val(vevents);
  if ((uintnat) n > Wosize_val(vrevents)) n = Wosize_val(vrevents);
  return n;
}

/* select(fds[0..n-1]) with interest bits from vevents, results into
 * vrevents, as flash_evio_poll does.  Registration keeps every fd
 * inside [0, FD_SETSIZE); one outside is never put in a set.  A wait
 * that fails with EBADF instead marks each fd the kernel no longer
 * knows as invalid, and returns how many it marked.  Otherwise returns
 * the number of set bits (a descriptor ready both ways counts twice).
 * timeout is in milliseconds, -1 = block. */
CAMLprim value flash_evio_select(value vfds, value vevents, value vrevents,
                                 value vn, value vtimeout)
{
  /* Registered: while the runtime lock is released another thread may
   * run a collection that moves the arrays, and the results are
   * written into them after the wait. */
  CAMLparam5(vfds, vevents, vrevents, vn, vtimeout);
  long n = evio_count(vfds, vevents, vrevents, vn);
  int timeout = Int_val(vtimeout);
  fd_set rd, wr;
  struct timeval tv, *tvp = NULL;
  int maxfd = -1, ret, err, stale = 0;
  long i;

  FD_ZERO(&rd);
  FD_ZERO(&wr);
  for (i = 0; i < n; i++) {
    int fd = Int_val(Field(vfds, i));
    int bits = Int_val(Field(vevents, i));
    if (fd < 0 || fd >= FD_SETSIZE) continue;
    if (bits & EVIO_READ) FD_SET(fd, &rd);
    if (bits & EVIO_WRITE) FD_SET(fd, &wr);
    if (fd > maxfd) maxfd = fd;
  }
  if (timeout >= 0) {
    tv.tv_sec = timeout / 1000;
    tv.tv_usec = (timeout % 1000) * 1000;
    tvp = &tv;
  }
  caml_release_runtime_system();
  ret = select(maxfd + 1, &rd, &wr, NULL, tvp);
  err = errno;
  caml_acquire_runtime_system();
  if (ret == -1 && err != EBADF) {
    errno = err;
    caml_uerror("select", Nothing);
  }
  for (i = 0; i < n; i++) {
    int fd = Int_val(Field(vfds, i));
    int out = 0;
    if (fd < 0 || fd >= FD_SETSIZE)
      out = 0;
    else if (ret == -1) {
      /* The sets are unspecified after a failed wait. */
      if (fcntl(fd, F_GETFD) == -1 && errno == EBADF) {
        out = EVIO_INVALID;
        stale++;
      }
    } else {
      if (FD_ISSET(fd, &rd)) out |= EVIO_READ;
      if (FD_ISSET(fd, &wr)) out |= EVIO_WRITE;
    }
    /* Int stores need no write barrier. */
    Field(vrevents, i) = Val_int(out);
  }
  CAMLreturn(Val_int(ret == -1 ? stale : ret));
}

/* poll(fds[0..n-1]) with interest bits from vevents, results into
 * vrevents (int arrays).  Returns the number of ready descriptors.
 * timeout is in milliseconds, -1 = block. */
CAMLprim value flash_evio_poll(value vfds, value vevents, value vrevents,
                               value vn, value vtimeout)
{
  CAMLparam5(vfds, vevents, vrevents, vn, vtimeout);
  long n = evio_count(vfds, vevents, vrevents, vn);
  int timeout = Int_val(vtimeout);
  struct pollfd *pfds;
  long i;
  int ret;

  pfds = (struct pollfd *) malloc((n > 0 ? n : 1) * sizeof(struct pollfd));
  if (pfds == NULL) caml_raise_out_of_memory();
  for (i = 0; i < n; i++) {
    int bits = Int_val(Field(vevents, i));
    pfds[i].fd = Int_val(Field(vfds, i));
    pfds[i].events = 0;
    if (bits & EVIO_READ) pfds[i].events |= POLLIN | POLLPRI;
    if (bits & EVIO_WRITE) pfds[i].events |= POLLOUT;
    pfds[i].revents = 0;
  }
  caml_release_runtime_system();
  ret = poll(pfds, (nfds_t) n, timeout);
  caml_acquire_runtime_system();
  if (ret == -1) {
    int err = errno;
    free(pfds);
    errno = err; /* free() may clobber errno before caml_uerror reads it */
    caml_uerror("poll", Nothing);
  }
  for (i = 0; i < n; i++) {
    int out = 0;
    short re = pfds[i].revents;
    if (re & (POLLIN | POLLPRI | POLLERR | POLLHUP)) out |= EVIO_READ;
    if (re & (POLLOUT | POLLERR | POLLHUP)) out |= EVIO_WRITE;
    out &= Int_val(Field(vevents, i));
    if (re & POLLNVAL) out = EVIO_INVALID;
    /* Int stores need no write barrier. */
    Field(vrevents, i) = Val_int(out);
  }
  free(pfds);
  CAMLreturn(Val_int(ret));
}

#endif /* !_WIN32 */

#ifdef __linux__

#include <caml/unixsupport.h>
#include <sys/epoll.h>
#include <unistd.h>
#include <errno.h>

CAMLprim value flash_evio_epoll_available(value unit)
{
  (void) unit;
  return Val_true;
}

CAMLprim value flash_evio_epoll_create(value unit)
{
  int fd;
  (void) unit;
  fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd == -1) caml_uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

/* op: 0 = add, 1 = modify, 2 = delete; bits as above. */
CAMLprim value flash_evio_epoll_ctl(value vepfd, value vop, value vfd,
                                    value vbits)
{
  struct epoll_event ev;
  int bits = Int_val(vbits);
  int op;
  ev.events = 0;
  if (bits & EVIO_READ) ev.events |= EPOLLIN | EPOLLPRI;
  if (bits & EVIO_WRITE) ev.events |= EPOLLOUT;
  /* The fd in the low half, its interest bits above: a wait reports
   * only what the fd is watched for. */
  ev.data.u64 = (uint64_t) (uint32_t) Int_val(vfd) | ((uint64_t) bits << 32);
  switch (Int_val(vop)) {
  case 0: op = EPOLL_CTL_ADD; break;
  case 1: op = EPOLL_CTL_MOD; break;
  default: op = EPOLL_CTL_DEL; break;
  }
  if (epoll_ctl(Int_val(vepfd), op, Int_val(vfd), &ev) == -1)
    caml_uerror("epoll_ctl", Nothing);
  return Val_unit;
}

/* Wait and copy up to [max] ready events into the two out arrays
 * (ready fd, result bits).  Returns the number of events. */
CAMLprim value flash_evio_epoll_wait(value vepfd, value vfds_out,
                                     value vrevents_out, value vmax,
                                     value vtimeout)
{
  CAMLparam5(vepfd, vfds_out, vrevents_out, vmax, vtimeout);
  struct epoll_event evs[256];
  long max = Long_val(vmax);
  int n, i;

  if (max > 256) max = 256;
  if ((uintnat) max > Wosize_val(vfds_out)) max = Wosize_val(vfds_out);
  if ((uintnat) max > Wosize_val(vrevents_out)) max = Wosize_val(vrevents_out);
  caml_release_runtime_system();
  n = epoll_wait(Int_val(vepfd), evs, (int) max, Int_val(vtimeout));
  caml_acquire_runtime_system();
  if (n == -1) caml_uerror("epoll_wait", Nothing);
  for (i = 0; i < n; i++) {
    int out = 0;
    uint32_t e = evs[i].events;
    if (e & (EPOLLIN | EPOLLPRI | EPOLLERR | EPOLLHUP)) out |= EVIO_READ;
    if (e & (EPOLLOUT | EPOLLERR | EPOLLHUP)) out |= EVIO_WRITE;
    out &= (int) (evs[i].data.u64 >> 32);
    Field(vfds_out, i) = Val_int((int) (uint32_t) evs[i].data.u64);
    Field(vrevents_out, i) = Val_int(out);
  }
  CAMLreturn(Val_int(n));
}

#else /* !__linux__ */

CAMLprim value flash_evio_epoll_available(value unit)
{
  (void) unit;
  return Val_false;
}

CAMLprim value flash_evio_epoll_create(value unit)
{
  (void) unit;
  caml_failwith("Evio.epoll: not available on this platform");
}

CAMLprim value flash_evio_epoll_ctl(value vepfd, value vop, value vfd,
                                    value vbits)
{
  (void) vepfd; (void) vop; (void) vfd; (void) vbits;
  caml_failwith("Evio.epoll: not available on this platform");
}

CAMLprim value flash_evio_epoll_wait(value vepfd, value vfds_out,
                                     value vrevents_out, value vmax,
                                     value vtimeout)
{
  (void) vepfd; (void) vfds_out; (void) vrevents_out; (void) vmax;
  (void) vtimeout;
  caml_failwith("Evio.epoll: not available on this platform");
}

#endif /* !__linux__ */

/* SO_REUSEPORT, for the sharded deployment mode: one listening socket
 * per domain with the kernel balancing accepts.  There is no fallback,
 * so every failure names the option. */

#if !defined(_WIN32)
#include <sys/socket.h>
#include <errno.h>
#include <stdio.h>
#include <string.h>
#endif

CAMLprim value flash_evio_set_reuseport(value vfd)
{
#if defined(SO_REUSEPORT)
  int one = 1;
  if (setsockopt(Int_val(vfd), SOL_SOCKET, SO_REUSEPORT, &one,
                 sizeof(one)) != 0) {
    char msg[128];
    snprintf(msg, sizeof msg, "setsockopt(SO_REUSEPORT): %s",
             strerror(errno));
    caml_failwith(msg);
  }
  return Val_unit;
#else
  (void) vfd;
  caml_failwith("Evio.set_reuseport: SO_REUSEPORT not available");
#endif
}
