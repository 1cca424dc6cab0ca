//===- tests/interpreter_test.cpp - Interpreter semantics tests -----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "instr/Instrumenter.h"
#include "instr/Superinstr.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "runtime/InterpProfiler.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace herd;

namespace {

InterpResult runProgram(const Program &P, uint64_t Seed = 1,
                        RuntimeHooks *Hooks = nullptr) {
  EXPECT_TRUE(verifyProgram(P).empty());
  InterpOptions Opts;
  Opts.Seed = Seed;
  Interpreter Interp(P, Hooks, Opts);
  return Interp.run();
}

TEST(InterpreterTest, ArithmeticAndPrint) {
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId A = B.emitConst(7);
  RegId C = B.emitConst(3);
  B.emitPrint(B.emitBinOp(BinOpKind::Add, A, C));
  B.emitPrint(B.emitBinOp(BinOpKind::Sub, A, C));
  B.emitPrint(B.emitBinOp(BinOpKind::Mul, A, C));
  B.emitPrint(B.emitBinOp(BinOpKind::Div, A, C));
  B.emitPrint(B.emitBinOp(BinOpKind::Mod, A, C));
  B.emitPrint(B.emitBinOp(BinOpKind::CmpLt, C, A));
  B.emitReturn();
  InterpResult R = runProgram(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{10, 4, 21, 2, 1, 1}));
}

TEST(InterpreterTest, FieldsAndArrays) {
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "v");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId V = B.emitConst(42);
  B.emitPutField(Obj, F, V);
  B.emitPrint(B.emitGetField(Obj, F));
  RegId Len = B.emitConst(4);
  RegId Arr = B.emitNewArray(Len);
  RegId Idx = B.emitConst(2);
  B.emitAStore(Arr, Idx, V);
  B.emitPrint(B.emitALoad(Arr, Idx));
  B.emitPrint(B.emitArrayLen(Arr));
  B.emitReturn();
  InterpResult R = runProgram(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{42, 42, 4}));
}

TEST(InterpreterTest, StaticFields) {
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("G");
  FieldId S = B.makeStaticField(C, "counter");
  B.startMain();
  RegId V = B.emitConst(5);
  B.emitPutStatic(S, V);
  RegId Got = B.emitGetStatic(S);
  B.emitPrint(Got);
  B.emitReturn();
  InterpResult R = runProgram(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{5}));
}

TEST(InterpreterTest, CallsPassArgumentsAndReturnValues) {
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Math");
  MethodId Add = B.startMethod(C, "add3", /*NumParams=*/3);
  {
    RegId Sum = B.emitBinOp(BinOpKind::Add, B.param(1), B.param(2));
    B.emitReturn(Sum);
  }
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId X = B.emitConst(4);
  RegId Y = B.emitConst(9);
  RegId Ret = B.emitCall(Add, {Obj, X, Y});
  B.emitPrint(Ret);
  B.emitReturn();
  InterpResult R = runProgram(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{13}));
}

TEST(InterpreterTest, RecursionComputesFactorial) {
  // fact(this, n) = n <= 1 ? 1 : n * fact(this, n-1).
  Program P2;
  IRBuilder B2(P2);
  ClassId C2 = B2.makeClass("Fact");
  MethodId Fact2 = B2.startMethod(C2, "fact", 2);
  {
    RegId N = B2.param(1);
    RegId One = B2.emitConst(1);
    RegId IsBase = B2.emitBinOp(BinOpKind::CmpLe, N, One);
    B2.ifThenElse(
        IsBase, [&] { B2.emitReturn(B2.emitConst(1)); },
        [&] {
          RegId NMinus1 = B2.emitBinOp(BinOpKind::Sub, N, B2.emitConst(1));
          RegId Rec = B2.emitCall(Fact2, {B2.thisReg(), NMinus1});
          B2.emitReturn(B2.emitBinOp(BinOpKind::Mul, N, Rec));
        });
    B2.emitReturn(B2.emitConst(0)); // unreachable join
  }
  B2.startMain();
  RegId Obj = B2.emitNew(C2);
  RegId Five = B2.emitConst(5);
  B2.emitPrint(B2.emitCall(Fact2, {Obj, Five}));
  B2.emitReturn();
  InterpResult R = runProgram(P2);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{120}));
}

TEST(InterpreterTest, LoopsSumCorrectly) {
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "acc");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId N = B.emitConst(100);
  B.forLoop(1, N, 1, [&](RegId I) {
    RegId Cur = B.emitGetField(Obj, F);
    B.emitPutField(Obj, F, B.emitBinOp(BinOpKind::Add, Cur, I));
  });
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitReturn();
  InterpResult R = runProgram(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{4950})); // sum 1..99
}

/// Builds a program where two threads increment a shared counter field
/// under a lock NumIters times each, then main joins and prints the total.
Program buildTwoThreadCounter(bool Locked, int64_t NumIters) {
  Program P;
  IRBuilder B(P);
  ClassId Shared = B.makeClass("Shared");
  FieldId Count = B.makeField(Shared, "count");
  ClassId Worker = B.makeClass("Worker");
  FieldId Target = B.makeField(Worker, "target");

  MethodId Run = B.startMethod(Worker, "run", 1);
  {
    RegId Obj = B.emitGetField(B.thisReg(), Target);
    RegId N = B.emitConst(NumIters);
    B.forLoop(0, N, 1, [&](RegId) {
      auto Increment = [&] {
        RegId Cur = B.emitGetField(Obj, Count);
        RegId One = B.emitConst(1);
        B.emitPutField(Obj, Count, B.emitBinOp(BinOpKind::Add, Cur, One));
      };
      if (Locked)
        B.sync(Obj, Increment);
      else
        Increment();
    });
    B.emitReturn();
  }

  B.startMain();
  RegId SharedObj = B.emitNew(Shared);
  RegId W1 = B.emitNew(Worker);
  RegId W2 = B.emitNew(Worker);
  B.emitPutField(W1, Target, SharedObj);
  B.emitPutField(W2, Target, SharedObj);
  B.emitThreadStart(W1);
  B.emitThreadStart(W2);
  B.emitThreadJoin(W1);
  B.emitThreadJoin(W2);
  B.emitPrint(B.emitGetField(SharedObj, Count));
  B.emitReturn();
  (void)Run;
  return P;
}

TEST(InterpreterTest, ThreadsRunAndJoin) {
  Program P = buildTwoThreadCounter(/*Locked=*/true, 50);
  InterpResult R = runProgram(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ThreadsCreated, 3u);
  EXPECT_EQ(R.Output, (std::vector<int64_t>{100}));
}

TEST(InterpreterTest, MonitorsActuallyExcludeInterleavings) {
  // With locking, the counter is exact for every seed.
  for (uint64_t Seed : {1u, 2u, 3u, 17u, 99u}) {
    Program P = buildTwoThreadCounter(/*Locked=*/true, 25);
    InterpResult R = runProgram(P, Seed);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, (std::vector<int64_t>{50}));
  }
}

TEST(InterpreterTest, UnlockedIncrementsCanLoseUpdates) {
  // The read-modify-write race should drop updates for at least one seed —
  // this is the observable symptom the detector exists to explain.
  bool SawLostUpdate = false;
  for (uint64_t Seed = 1; Seed != 30 && !SawLostUpdate; ++Seed) {
    Program P = buildTwoThreadCounter(/*Locked=*/false, 40);
    InterpResult R = runProgram(P, Seed);
    ASSERT_TRUE(R.Ok) << R.Error;
    SawLostUpdate = R.Output[0] < 80;
  }
  EXPECT_TRUE(SawLostUpdate);
}

TEST(InterpreterTest, DeterministicForSameSeed) {
  Program P = buildTwoThreadCounter(/*Locked=*/false, 30);
  InterpResult R1 = runProgram(P, 1234);
  InterpResult R2 = runProgram(P, 1234);
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_EQ(R1.Output, R2.Output);
  EXPECT_EQ(R1.InstructionsExecuted, R2.InstructionsExecuted);
  EXPECT_EQ(R1.ContextSwitches, R2.ContextSwitches);
}

TEST(InterpreterTest, SynchronizedMethodAcquiresThisMonitor) {
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Obj");
  FieldId F = B.makeField(C, "v");
  MethodId Bump =
      B.startMethod(C, "bump", 1, /*IsStatic=*/false, /*IsSynchronized=*/true);
  {
    RegId Cur = B.emitGetField(B.thisReg(), F);
    B.emitPutField(B.thisReg(), F, B.emitBinOp(BinOpKind::Add, Cur,
                                               B.emitConst(1)));
    B.emitReturn();
  }
  B.startMain();
  RegId Obj = B.emitNew(C);
  B.emitCallVoid(Bump, {Obj});
  B.emitCallVoid(Bump, {Obj});
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitReturn();

  struct MonitorCounter : RuntimeHooks {
    int Enters = 0, Exits = 0;
    void onMonitorEnter(ThreadId, LockId, bool,
                        SiteId = SiteId::invalid()) override {
      ++Enters;
    }
    void onMonitorExit(ThreadId, LockId, bool) override { ++Exits; }
  } Hooks;
  InterpResult R = runProgram(P, 1, &Hooks);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{2}));
  EXPECT_EQ(Hooks.Enters, 2);
  EXPECT_EQ(Hooks.Exits, 2);
}

TEST(InterpreterTest, ReentrantMonitorReportsRecursion) {
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("L");
  B.startMain();
  RegId Obj = B.emitNew(C);
  B.sync(Obj, [&] { B.sync(Obj, [&] { B.emitPrint(B.emitConst(1)); }); });
  B.emitReturn();

  struct RecHooks : RuntimeHooks {
    std::vector<bool> EnterRecursive, ExitStillHeld;
    void onMonitorEnter(ThreadId, LockId, bool Recursive,
                        SiteId = SiteId::invalid()) override {
      EnterRecursive.push_back(Recursive);
    }
    void onMonitorExit(ThreadId, LockId, bool StillHeld) override {
      ExitStillHeld.push_back(StillHeld);
    }
  } Hooks;
  InterpResult R = runProgram(P, 1, &Hooks);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Hooks.EnterRecursive, (std::vector<bool>{false, true}));
  EXPECT_EQ(Hooks.ExitStillHeld, (std::vector<bool>{true, false}));
}

TEST(InterpreterTest, NullDereferenceFaults) {
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "v");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId Null = B.emitGetField(Obj, F); // field holds default 0 (int!)
  // Using the int as a reference is a type error.
  B.emitPrint(B.emitGetField(Null, F));
  B.emitReturn();
  InterpResult R = runProgram(P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("reference"), std::string::npos);
}

TEST(InterpreterTest, OutOfBoundsFaults) {
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId Arr = B.emitNewArray(B.emitConst(2));
  B.emitPrint(B.emitALoad(Arr, B.emitConst(5)));
  B.emitReturn();
  InterpResult R = runProgram(P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("bounds"), std::string::npos);
}

TEST(InterpreterTest, DivisionByZeroFaults) {
  Program P;
  IRBuilder B(P);
  B.startMain();
  B.emitPrint(B.emitBinOp(BinOpKind::Div, B.emitConst(1), B.emitConst(0)));
  B.emitReturn();
  InterpResult R = runProgram(P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("zero"), std::string::npos);
}

TEST(InterpreterTest, DeadlockDetected) {
  // Main starts a worker holding lock A wanting B while it holds B wanting
  // A — with a yield in the middle to force the interleaving.
  Program P;
  IRBuilder B(P);
  ClassId LockCls = B.makeClass("L");
  ClassId Worker = B.makeClass("W");
  FieldId FA = B.makeField(Worker, "a");
  FieldId FB = B.makeField(Worker, "b");
  B.startMethod(Worker, "run", 1);
  {
    RegId A = B.emitGetField(B.thisReg(), FA);
    RegId Bo = B.emitGetField(B.thisReg(), FB);
    uint32_t R1 = B.emitMonitorEnter(A);
    B.emitYield();
    B.emitYield();
    uint32_t R2 = B.emitMonitorEnter(Bo);
    B.emitMonitorExit(Bo, R2);
    B.emitMonitorExit(A, R1);
    B.emitReturn();
  }
  B.startMain();
  RegId A = B.emitNew(LockCls);
  RegId Bo = B.emitNew(LockCls);
  RegId W = B.emitNew(Worker);
  B.emitPutField(W, FA, A);
  B.emitPutField(W, FB, Bo);
  uint32_t R1 = B.emitMonitorEnter(Bo);
  B.emitThreadStart(W);
  B.emitYield();
  B.emitYield();
  uint32_t R2 = B.emitMonitorEnter(A);
  B.emitMonitorExit(A, R2);
  B.emitMonitorExit(Bo, R1);
  B.emitThreadJoin(W);
  B.emitReturn();

  bool SawDeadlock = false;
  for (uint64_t Seed = 1; Seed != 40 && !SawDeadlock; ++Seed) {
    InterpOptions Opts;
    Opts.Seed = Seed;
    Opts.MaxQuantum = 2;
    Interpreter Interp(P, nullptr, Opts);
    InterpResult R = Interp.run();
    if (!R.Ok && R.Error.find("deadlock") != std::string::npos)
      SawDeadlock = true;
  }
  EXPECT_TRUE(SawDeadlock);
}

TEST(InterpreterTest, FuelLimitStopsRunawayPrograms) {
  Program P;
  IRBuilder B(P);
  B.startMain();
  BlockId Loop = B.newBlock();
  B.emitJump(Loop);
  B.setBlock(Loop);
  B.emitJump(Loop);
  InterpOptions Opts;
  Opts.MaxInstructions = 10'000;
  Interpreter Interp(P, nullptr, Opts);
  InterpResult R = Interp.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(InterpreterTest, TraceEveryAccessEmitsEvents) {
  Program P = buildTwoThreadCounter(/*Locked=*/true, 10);
  struct Counter : RuntimeHooks {
    uint64_t Accesses = 0;
    void onAccess(ThreadId, LocationKey, AccessKind, SiteId) override {
      ++Accesses;
    }
  } Hooks;
  InterpOptions Opts;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(P, &Hooks, Opts);
  InterpResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(Hooks.Accesses, 40u); // 2 threads x 10 iters x (read+write) + setup
  EXPECT_EQ(Hooks.Accesses, R.AccessEvents);
}

TEST(InterpreterTest, ProfilerCountsExactAcrossDispatchModes) {
  // The profiler contract (docs/INTERPRETER.md): per-opcode dispatch
  // counts are exact per *constituent* instruction.  The profiled run
  // executes the original unfused code even when shadow code is supplied,
  // so its counts must add up to the instructions the fused, unprofiled
  // run executes — superinstructions never blur the profile.
  Program P = buildTwoThreadCounter(/*Locked=*/true, 20);
  InstrumenterOptions IOpts;
  IOpts.UseStaticRaceSet = false;
  IOpts.StaticWeakerThan = false;
  IOpts.LoopPeeling = false;
  instrumentProgram(P, IOpts, nullptr);
  ASSERT_TRUE(verifyProgram(P).empty());
  ThreadedCode TC = buildThreadedCode(P);
  ASSERT_GT(TC.Stats.sites(), 0u); // the fused path genuinely exists

  InterpOptions Opts;
  Opts.Seed = 5;
  Opts.Fused = &TC;
  Interpreter Fast(P, nullptr, Opts);
  InterpResult FastRun = Fast.run();
  ASSERT_TRUE(FastRun.Ok) << FastRun.Error;
  EXPECT_GT(FastRun.Fused.total(), 0u);

  InterpProfiler Prof;
  Opts.Profiler = &Prof;
  Interpreter Profiled(P, nullptr, Opts);
  InterpResult ProfiledRun = Profiled.run();
  ASSERT_TRUE(ProfiledRun.Ok) << ProfiledRun.Error;
  // Profiled runs unfused: the fused counters must stay zero.
  EXPECT_EQ(ProfiledRun.Fused.total(), 0u);

  EXPECT_EQ(Prof.totalDispatches(), FastRun.InstructionsExecuted);
  EXPECT_EQ(ProfiledRun.InstructionsExecuted, FastRun.InstructionsExecuted);
  // Every Trace dispatch emits exactly one access event.
  EXPECT_GT(FastRun.AccessEvents, 0u);
  EXPECT_EQ(Prof.counts(Opcode::Trace).Dispatches, FastRun.AccessEvents);
}

TEST(InterpreterTest, JoinOnUnstartedThreadReturnsImmediately) {
  Program P;
  IRBuilder B(P);
  ClassId Worker = B.makeClass("W");
  B.startMethod(Worker, "run", 1);
  B.emitReturn();
  B.startMain();
  RegId W = B.emitNew(Worker);
  B.emitThreadJoin(W); // never started: no-op per Java semantics
  B.emitPrint(B.emitConst(7));
  B.emitReturn();
  InterpResult R = runProgram(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{7}));
}

TEST(InterpreterTest, DoubleStartFaults) {
  Program P;
  IRBuilder B(P);
  ClassId Worker = B.makeClass("W");
  B.startMethod(Worker, "run", 1);
  B.emitReturn();
  B.startMain();
  RegId W = B.emitNew(Worker);
  B.emitThreadStart(W);
  B.emitThreadStart(W);
  B.emitReturn();
  InterpResult R = runProgram(P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("twice"), std::string::npos);
}

TEST(HeapTest, ClassStaticsObjectIsSharedPerClass) {
  Program P;
  IRBuilder B(P);
  ClassId C1 = B.makeClass("A");
  FieldId S1 = B.makeStaticField(C1, "x");
  FieldId S2 = B.makeStaticField(C1, "y");
  ClassId C2 = B.makeClass("B");
  FieldId S3 = B.makeStaticField(C2, "x");
  B.startMain();
  B.emitPutStatic(S1, B.emitConst(1));
  B.emitPutStatic(S2, B.emitConst(2));
  B.emitPutStatic(S3, B.emitConst(3));
  B.emitPrint(B.emitGetStatic(S1));
  B.emitPrint(B.emitGetStatic(S2));
  B.emitPrint(B.emitGetStatic(S3));
  B.emitReturn();
  Interpreter Interp(P, nullptr, InterpOptions{});
  InterpResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1, 2, 3}));
  // Exactly two statics pseudo-objects were materialized, and the two
  // fields of class A share one (distinct slots).
  EXPECT_EQ(Interp.heap().classStatics(C1), Interp.heap().classStatics(C1));
  EXPECT_NE(Interp.heap().classStatics(C1).index(),
            Interp.heap().classStatics(C2).index());
}

} // namespace
