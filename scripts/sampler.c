/*
 * A sampling profiler that needs neither `perf` nor a debugger: a preload
 * library. scripts/profile.sh builds it, runs the benchmark under it and
 * symbolizes what it wrote; by hand:
 *
 *   cc -O2 -shared -fPIC -o libsampler.so scripts/sampler.c
 *   SAMPLER_OUT=/tmp/prof LD_PRELOAD=$PWD/libsampler.so <program> <args>
 *   python3 scripts/symbolize.py /tmp/prof.<pid>
 *
 * Loaded, it arms ITIMER_PROF, which counts the CPU time of all the
 * process's threads, user and system; the kernel sends each SIGPROF to the
 * thread that was running when the timer ran out. The handler records that
 * thread's id and the instruction pointer it interrupted, and keeps the
 * thread's name (PR_GET_NAME) in a table, read again at every sample since
 * a thread names itself after it starts. Time in a system call is charged
 * to the libc wrapper the call returns to. At exit the samples, the names
 * and /proc/self/maps go to $SAMPLER_OUT.<pid>; a process whose environment
 * has no SAMPLER_OUT is left alone.
 *
 * Resolution: process CPU timers are checked on the scheduler tick, so a
 * sample is taken every tick of CPU time (4 ms at HZ=250) whatever interval
 * is asked for.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 18)
#define MAX_THREADS 1024

struct sample {
    int32_t tid;
    uint64_t ip;
};

struct thread {
    int32_t tid;
    char name[16];
};

static struct sample samples[MAX_SAMPLES];
static struct thread threads[MAX_THREADS];
static uint32_t taken;
static int armed;

/* Claims the table entry of `tid` (or finds it) and stores its name. Only
 * the thread itself writes its entry's name. */
static void name_thread(int32_t tid)
{
    for (int i = 0; i < MAX_THREADS; i++) {
        int32_t seen = __atomic_load_n(&threads[i].tid, __ATOMIC_ACQUIRE);
        if (seen == 0) {
            int32_t empty = 0;
            seen = __atomic_compare_exchange_n(&threads[i].tid, &empty, tid, 0,
                                               __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE)
                       ? tid
                       : empty;
        }
        if (seen == tid) {
            prctl(PR_GET_NAME, threads[i].name);
            return;
        }
    }
}

static void on_prof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    int saved = errno;
    const ucontext_t *uc = context;
    int32_t tid = (int32_t)syscall(SYS_gettid);
    uint32_t at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at < MAX_SAMPLES) {
        samples[at].tid = tid;
#if defined(__x86_64__)
        samples[at].ip = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#else
#error "sampler.c reads the interrupted instruction pointer on x86-64 only"
#endif
    }
    name_thread(tid);
    errno = saved;
}

__attribute__((constructor)) static void start(void)
{
    if (!getenv("SAMPLER_OUT")) {
        return;
    }
    struct sigaction action = {0};
    action.sa_sigaction = on_prof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    /* 1 ms: the tick rounds it up. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    if (sigaction(SIGPROF, &action, NULL) != 0 || setitimer(ITIMER_PROF, &every, NULL) != 0) {
        perror("sampler: arming ITIMER_PROF");
        return;
    }
    armed = 1;
}

__attribute__((destructor)) static void dump(void)
{
    if (!armed) {
        return;
    }
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("SAMPLER_OUT"), (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        perror(path);
        return;
    }
    uint32_t total = __atomic_load_n(&taken, __ATOMIC_ACQUIRE);
    uint32_t kept = total < MAX_SAMPLES ? total : MAX_SAMPLES;
    fprintf(out, "samples %u dropped %u\n", kept, total - kept);
    for (int i = 0; i < MAX_THREADS && threads[i].tid != 0; i++) {
        fprintf(out, "thread %d %.16s\n", threads[i].tid, threads[i].name);
    }
    for (uint32_t i = 0; i < kept; i++) {
        fprintf(out, "sample %d %llx\n", samples[i].tid, (unsigned long long)samples[i].ip);
    }
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps)) {
            fputs(line, out);
        }
        fclose(maps);
    }
    fclose(out);
}
