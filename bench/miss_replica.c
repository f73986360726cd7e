/* One live-server cache miss in C, two ways, for the copy-or-map
 * crossover in EXPERIMENTS.md ("Small-file misses").
 *
 *   map:  open, fstat, mmap, mincore, close, writev(header, body),
 *         and munmap when the body leaves the cache;
 *   copy: open, fstat, malloc, preadv2(RWF_NOWAIT), close,
 *         writev(header, body), and free when the body leaves the cache.
 *
 * Bodies stay cached FIFO in 32 MB worth of slots, as the server's
 * cache holds them until eviction, so the unmap or free an eviction
 * pays lands in the steady state.  Responses go over TCP loopback and
 * are drained by the same thread.  The files are written first, so
 * they are in the page cache.
 *
 *   cc -O2 -o miss_replica bench/miss_replica.c
 *   taskset -c 1 ./miss_replica DIR SIZE
 *
 * prints µs per miss for five rounds of each way; each round is twice
 * the cache's slots, and the first fills the cache. */

#define _GNU_SOURCE
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#define NFILES 64
#define CACHE_BYTES (32 << 20)

static char header[256];
static char sink[1 << 20];

static void die(const char *what)
{
  perror(what);
  exit(1);
}

static double now(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

static void drain(int r, size_t n)
{
  while (n > 0) {
    ssize_t k = read(r, sink, n < sizeof sink ? n : sizeof sink);
    if (k <= 0) die("read");
    n -= (size_t) k;
  }
}

/* One response: a gather write of header and body, finished with plain
 * writes when the socket takes less. */
static void respond(int w, int r, const char *body, size_t len)
{
  struct iovec iov[2] = { { header, sizeof header }, { (void *) body, len } };
  size_t done;
  ssize_t n = writev(w, iov, 2);

  if (n < 0) die("writev");
  drain(r, (size_t) n);
  for (done = (size_t) n; done < sizeof header + len;) {
    size_t off = done - sizeof header;
    ssize_t k = write(w, body + off, len - off);
    if (k < 0) die("write");
    drain(r, (size_t) k);
    done += (size_t) k;
  }
}

static void loopback(int sv[2])
{
  struct sockaddr_in a = { .sin_family = AF_INET };
  socklen_t al = sizeof a;
  int l = socket(AF_INET, SOCK_STREAM, 0);

  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(l, (struct sockaddr *) &a, sizeof a) || listen(l, 1)
      || getsockname(l, (struct sockaddr *) &a, &al))
    die("listen");
  sv[1] = socket(AF_INET, SOCK_STREAM, 0);
  if (connect(sv[1], (struct sockaddr *) &a, sizeof a)) die("connect");
  sv[0] = accept(l, NULL, NULL);
  close(l);
}

int main(int argc, char **argv)
{
  char path[4096];
  size_t size, slots;
  unsigned char *vec;
  char *data;
  void **cache;
  int sv[2], mode, i;

  if (argc != 3) {
    fprintf(stderr, "usage: %s DIR SIZE\n", argv[0]);
    return 2;
  }
  size = (size_t) atol(argv[2]);
  slots = CACHE_BYTES / size;
  data = malloc(size);
  vec = malloc(size / 4096 + 2);
  cache = calloc(slots, sizeof *cache);
  memset(data, 'x', size);
  for (i = 0; i < NFILES; i++) {
    int fd;
    snprintf(path, sizeof path, "%s/miss%zu_%d", argv[1], size, i);
    fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || write(fd, data, size) != (ssize_t) size) die(path);
    close(fd);
  }
  loopback(sv);
  for (mode = 0; mode < 2; mode++) {
    size_t head = 0, k;
    int round;
    for (round = 0; round < 5; round++) {
      double t0 = now();
      size_t it, iters = 2 * slots;
      for (it = 0; it < iters; it++) {
        struct stat st;
        void *body;
        int fd;
        snprintf(path, sizeof path, "%s/miss%zu_%d", argv[1], size,
                 (int) (it % NFILES));
        fd = open(path, O_RDONLY | O_NONBLOCK | O_CLOEXEC);
        if (fd < 0 || fstat(fd, &st)) die(path);
        if (mode == 0) {
          body = mmap(NULL, size, PROT_READ, MAP_SHARED, fd, 0);
          if (body == MAP_FAILED || mincore(body, size, vec)) die("mmap");
        } else {
          struct iovec v;
          body = malloc(size);
          v.iov_base = body;
          v.iov_len = size;
          if (preadv2(fd, &v, 1, 0, RWF_NOWAIT) != (ssize_t) size)
            die("preadv2");
        }
        close(fd);
        respond(sv[0], sv[1], body, size);
        if (cache[head]) {
          if (mode == 0) munmap(cache[head], size);
          else free(cache[head]);
        }
        cache[head] = body;
        head = (head + 1) % slots;
      }
      printf("%s %zu round %d: %.2f us/miss\n", mode ? "copy" : "map", size,
             round, (now() - t0) / (double) iters * 1e6);
    }
    for (k = 0; k < slots; k++) {
      if (cache[k] == NULL) continue;
      if (mode == 0) munmap(cache[k], size);
      else free(cache[k]);
      cache[k] = NULL;
    }
  }
  for (i = 0; i < NFILES; i++) {
    snprintf(path, sizeof path, "%s/miss%zu_%d", argv[1], size, i);
    unlink(path);
  }
  return 0;
}
