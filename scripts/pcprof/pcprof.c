// SIGPROF program-counter sampler, loaded into a program with LD_PRELOAD.
//
//   cc -O2 -shared -fPIC -o build/pcprof/libpcprof.so scripts/pcprof/pcprof.c
//   PROF_OUT=pcprof.txt PROF_SKIP=1 PROF_DUR=2
//     LD_PRELOAD=$PWD/build/pcprof/libpcprof.so <program> [args...]
//     (one command line: the environment settings, then the program)
//   python3 scripts/pcprof/symbolize.py pcprof.txt
//
// ITIMER_PROF fires every 1/997 s of process CPU time (all threads
// together; a prime rate, so the timer does not beat against periodic work)
// and the kernel delivers SIGPROF to a thread that is running, so each
// sample is the program counter a busy thread was at. Only samples
// taken in the wall-clock window [PROF_SKIP, PROF_SKIP + PROF_DUR) seconds
// after the program starts are kept, which leaves out setup and teardown
// and samples just a program's timed loop.
//
// At exit the library writes PROF_OUT (default pcprof.txt): the process's
// memory map ("m <line of /proc/self/maps>") and then one "s <hex pc>" line
// per sample; symbolize.py turns it into per-function shares. A process
// that took no sample in the window writes nothing, so a preloaded shell
// or launcher that only waits on its child leaves the file alone.
//
// Environment:
//   PROF_OUT   output path (default pcprof.txt)
//   PROF_SKIP  seconds after start before sampling begins (default 0)
//   PROF_DUR   seconds to sample (default: until exit)

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#define PCPROF_CAP (1u << 20)

static uintptr_t g_pc[PCPROF_CAP];
static unsigned long g_taken;  // samples claimed; may exceed PCPROF_CAP
static double g_begin, g_end;  // sampling window, CLOCK_MONOTONIC seconds

static double now_s(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static double env_seconds(const char* name, double fallback) {
  const char* v = getenv(name);
  return v && *v ? atof(v) : fallback;
}

static void on_sigprof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const double t = now_s();  // clock_gettime is async-signal-safe
  if (t < g_begin || t >= g_end) return;
  const ucontext_t* uc = (const ucontext_t*)ctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pcprof: add the program-counter register for this architecture"
#endif
  const unsigned long i = __atomic_fetch_add(&g_taken, 1, __ATOMIC_RELAXED);
  if (i < PCPROF_CAP) g_pc[i] = pc;
}

__attribute__((constructor)) static void pcprof_start(void) {
  const double start = now_s();
  g_begin = start + env_seconds("PROF_SKIP", 0.0);
  g_end = g_begin + env_seconds("PROF_DUR", 1e30);

  struct sigaction sa;
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);

  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000000 / 997;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void pcprof_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  unsigned long n = __atomic_load_n(&g_taken, __ATOMIC_RELAXED);
  if (n == 0) return;
  if (n > PCPROF_CAP) n = PCPROF_CAP;

  const char* path = getenv("PROF_OUT");
  FILE* out = fopen(path && *path ? path : "pcprof.txt", "w");
  if (!out) return;
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps) {
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "m %s", line);
    fclose(maps);
  }
  for (unsigned long i = 0; i < n; ++i)
    fprintf(out, "s %lx\n", (unsigned long)g_pc[i]);
  fclose(out);
}
