/* SIGPROF sampling profiler, loaded into a process with LD_PRELOAD.
 *
 * Every millisecond of the process's CPU time (ITIMER_PROF) the handler
 * records the interrupted call stack with glibc's backtrace(). Unlike gprof
 * it needs no instrumented build, it sees time spent inside libc and
 * libstdc++, and it never splits a callee's time among callers by call
 * count: each sample is a whole stack.
 *
 * Built with -DHOSTPROF_ALLOC_EVERY=N it samples allocations instead: it
 * interposes malloc, records the stack of every Nth call, and arms no
 * timer. Each record has the SIGPROF layout (a frame in this shim, a
 * placeholder where the signal trampoline would be, then the leaf: this
 * shim's malloc), so the same reader symbolizes both.
 *
 * At exit it writes two files into the working directory:
 *   hostprof.<pid>.maps     a copy of /proc/self/maps, to symbolize with;
 *   hostprof.<pid>.samples  little-endian u64 words, one record per sample:
 *                           the frame count n, then n frame addresses,
 *                           innermost first (the handler, the signal
 *                           trampoline, the interrupted pc, then return
 *                           addresses).
 * scripts/hostprof/hostprof.py builds this file, runs a command under it
 * and reports on the result; see its header.
 *
 * Build by hand: cc -shared -fPIC -O2 -o hostprof.so hostprof.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

enum {
  kIntervalUs = 1000,
  kMaxDepth = 64,
  kWords = 4 << 20, /* 32 MiB of address space, touched only as used */
};

static uint64_t* words;
static size_t used;
static size_t dropped;

#ifndef HOSTPROF_ALLOC_EVERY
#define HOSTPROF_ALLOC_EVERY 0
#endif

/* Appends one record: n frames as backtrace() returned them, behind
 * `prefix` words. Safe in a signal handler. */
static void record(const uint64_t* prefix, int n_prefix, void* const* frames, int n) {
  const size_t count = (size_t)n_prefix + (size_t)(n > 0 ? n : 0);
  const size_t need = count + 1;
  const size_t at = __atomic_fetch_add(&used, need, __ATOMIC_RELAXED);
  if (n <= 0 || at + need > kWords) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  words[at] = (uint64_t)count;
  for (int i = 0; i < n_prefix; ++i) words[at + 1 + (size_t)i] = prefix[i];
  for (int i = 0; i < n; ++i) {
    words[at + 1 + (size_t)n_prefix + (size_t)i] = (uint64_t)(uintptr_t)frames[i];
  }
}

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  (void)context;
  const int saved_errno = errno;
  void* frames[kMaxDepth];
  const int n = backtrace(frames, kMaxDepth);
  record(NULL, 0, frames, n);
  errno = saved_errno;
}

#if HOSTPROF_ALLOC_EVERY > 0
extern void* __libc_malloc(size_t size);

static uint64_t allocations;
/* Set while this thread records, so the unwinder's own allocations are
 * neither counted nor sampled. */
static __thread int in_hook __attribute__((tls_model("initial-exec")));

void* malloc(size_t size) {
  if (words != NULL && !in_hook &&
      __atomic_fetch_add(&allocations, 1, __ATOMIC_RELAXED) % HOSTPROF_ALLOC_EVERY == 0) {
    in_hook = 1;
    void* frames[kMaxDepth];
    const int n = backtrace(frames, kMaxDepth);
    if (n > 1) {
      /* frames[0] is inside this malloc: it stands for the handler frame,
       * then for the leaf; frames[1] on are the return addresses. */
      const uint64_t prefix[3] = {(uint64_t)(uintptr_t)frames[0], 0,
                                  (uint64_t)(uintptr_t)frames[0]};
      record(prefix, 3, frames + 1, n - 1);
    }
    in_hook = 0;
  }
  return __libc_malloc(size);
}
#endif

static void write_all(int fd, const void* data, size_t len) {
  const char* p = data;
  while (len > 0) {
    const ssize_t w = write(fd, p, len);
    if (w <= 0) return;
    p += w;
    len -= (size_t)w;
  }
}

static int open_output(const char* suffix) {
  char path[64];
  snprintf(path, sizeof(path), "hostprof.%ld.%s", (long)getpid(), suffix);
  return open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

__attribute__((constructor)) static void hostprof_start(void) {
  words = mmap(NULL, (size_t)kWords * sizeof(uint64_t), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (words == MAP_FAILED) {
    words = NULL;
    return;
  }
  /* The first backtrace() loads the unwinder; do it here, not in the
   * handler, where loading a library is not safe. */
  void* warm[4];
  (void)backtrace(warm, 4);
  if (HOSTPROF_ALLOC_EVERY > 0) return; /* allocation samples only */

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void hostprof_stop(void) {
  if (words == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);

  const int maps_in = open("/proc/self/maps", O_RDONLY);
  const int maps_out = open_output("maps");
  if (maps_in >= 0 && maps_out >= 0) {
    char chunk[4096];
    ssize_t r;
    while ((r = read(maps_in, chunk, sizeof(chunk))) > 0) write_all(maps_out, chunk, (size_t)r);
  }
  if (maps_in >= 0) close(maps_in);
  if (maps_out >= 0) close(maps_out);

  const int samples = open_output("samples");
  if (samples >= 0) {
    size_t end = __atomic_load_n(&used, __ATOMIC_RELAXED);
    if (end > kWords) end = kWords;
    write_all(samples, words, end * sizeof(uint64_t));
    close(samples);
  }
  if (dropped > 0) {
    fprintf(stderr, "hostprof: %zu samples dropped (buffer full)\n", dropped);
  }
}
