// Stackful user-level threads.
//
// A Fiber owns a private stack and a body function. resume() transfers
// control from the calling kernel thread into the fiber; the fiber returns
// control either by finishing its body or by calling Fiber::yield() from
// inside. This is the mechanism MPC uses to run many MPI "tasks" per
// kernel thread; the Scheduler (scheduler.hpp) multiplexes fibers over
// per-core workers.
//
// Fiber switch. On x86-64 (System V, ELF) a switch is a short assembly
// routine (fiber_switch.S) that saves only the callee-saved registers,
// the MXCSR and the x87 control word: a rounding mode or exception mask
// set inside a fiber stays with that fiber. Nothing else is switched and
// no system call is made. In particular the signal mask is per kernel
// thread, not per fiber: a mask changed inside a fiber stays in force on
// whatever runs next on that worker, so fibers must not rely on
// per-fiber signal masks. Other targets switch through POSIX ucontext.
#pragma once

#if defined(__x86_64__) && defined(__ELF__)
#define HLSMPC_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>

namespace hlsmpc::ult {

class Fiber {
 public:
  using Body = std::function<void()>;

  /// Default stack matches MPC-style lightweight tasks; raise it for deep
  /// call chains in application code.
  explicit Fiber(Body body, std::size_t stack_bytes = 256 * 1024);
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  /// Run the fiber until it yields or finishes. Must not be called from
  /// inside any fiber. Returns true if the fiber finished.
  bool resume();

  /// Yield from inside the currently running fiber back to its resumer.
  /// Throws if no fiber is running on this kernel thread.
  static void yield();

  /// Fiber currently running on this kernel thread, or nullptr.
  static Fiber* current();

  bool done() const { return done_; }

 private:
  static void trampoline();
  /// Resumer side: save the resumer, continue the fiber.
  void switch_in();
  /// Fiber side: save the fiber, continue the resumer.
  void switch_out();
  void san_create();
  void san_destroy();
  void san_enter_fiber();
  void san_land_in_fiber();
  void san_leave_fiber(bool dying);
  void san_land_in_thread();

  Body body_;
  std::unique_ptr<std::byte[]> stack_;
  std::size_t stack_bytes_;
#ifdef HLSMPC_FIBER_ASM_SWITCH
  void* sp_ = nullptr;         ///< fiber's saved frame while switched out
  void* return_sp_ = nullptr;  ///< resumer's saved frame while it runs
#else
  ucontext_t ctx_{};
  ucontext_t return_ctx_{};
#endif
  bool started_ = false;
  bool done_ = false;
  std::exception_ptr error_;

  // Sanitizer bookkeeping (unused in plain builds). TSan and ASan must be
  // told about stack switches or they misattribute every fiber frame; see
  // the annotation helpers in fiber.cpp.
  void* san_fiber_ = nullptr;          ///< TSan fiber handle
  void* san_resumer_ = nullptr;        ///< TSan handle of the resumer
  void* san_own_fake_ = nullptr;       ///< ASan fake stack of this fiber
  void* san_resumer_fake_ = nullptr;   ///< ASan fake stack of the resumer
  const void* san_resumer_bottom_ = nullptr;
  std::size_t san_resumer_size_ = 0;
};

}  // namespace hlsmpc::ult
