#include "cms/isa.hpp"

#include <gtest/gtest.h>

#include "cms/programs.hpp"
#include "common/error.hpp"

namespace bladed::cms {
namespace {

TEST(Isa, ExecIntOps) {
  MachineState st;
  Instr movi;
  movi.op = Op::kMovi;
  movi.a = 1;
  movi.imm_i = 7;
  EXPECT_EQ(exec_instr(movi, 0, st), 1u);
  EXPECT_EQ(st.r[1], 7);

  Instr add;
  add.op = Op::kAdd;
  add.a = 2;
  add.b = 1;
  add.c = 1;
  EXPECT_EQ(exec_instr(add, 1, st), 2u);
  EXPECT_EQ(st.r[2], 14);

  Instr sub;
  sub.op = Op::kSub;
  sub.a = 3;
  sub.b = 2;
  sub.c = 1;
  EXPECT_EQ(exec_instr(sub, 2, st), 3u);
  EXPECT_EQ(st.r[3], 7);

  Instr muli;
  muli.op = Op::kMuli;
  muli.a = 4;
  muli.b = 3;
  muli.imm_i = 6;
  EXPECT_EQ(exec_instr(muli, 3, st), 4u);
  EXPECT_EQ(st.r[4], 42);
}

TEST(Isa, ExecFpAndMemory) {
  MachineState st;
  st.mem[5] = 9.0;
  Instr ld;
  ld.op = Op::kFload;
  ld.a = 1;
  ld.b = 0;
  ld.imm_i = 5;
  EXPECT_EQ(exec_instr(ld, 0, st), 1u);
  EXPECT_DOUBLE_EQ(st.f[1], 9.0);

  Instr sq;
  sq.op = Op::kFsqrt;
  sq.a = 2;
  sq.b = 1;
  EXPECT_EQ(exec_instr(sq, 1, st), 2u);
  EXPECT_DOUBLE_EQ(st.f[2], 3.0);

  Instr div;
  div.op = Op::kFdiv;
  div.a = 3;
  div.b = 1;
  div.c = 2;
  EXPECT_EQ(exec_instr(div, 2, st), 3u);
  EXPECT_DOUBLE_EQ(st.f[3], 3.0);

  Instr stx;
  stx.op = Op::kFstore;
  stx.a = 3;
  stx.b = 0;
  stx.imm_i = 6;
  EXPECT_EQ(exec_instr(stx, 3, st), 4u);
  EXPECT_DOUBLE_EQ(st.mem[6], 3.0);
}

TEST(Isa, BranchesTakenAndNotTaken) {
  MachineState st;
  st.r[1] = 3;
  st.r[2] = 5;
  Instr blt;
  blt.op = Op::kBlt;
  blt.a = 1;
  blt.b = 2;
  blt.imm_i = 42;
  EXPECT_EQ(exec_instr(blt, 7, st), 42u);  // 3 < 5: taken
  blt.a = 2;
  blt.b = 1;
  EXPECT_EQ(exec_instr(blt, 7, st), 8u);  // 5 < 3 is false

  Instr jmp;
  jmp.op = Op::kJmp;
  jmp.imm_i = 3;
  EXPECT_EQ(exec_instr(jmp, 9, st), 3u);
}

TEST(Isa, OutOfBoundsMemoryThrows) {
  MachineState st(16);
  Instr ld;
  ld.op = Op::kFload;
  ld.a = 0;
  ld.b = 0;
  ld.imm_i = 99;
  EXPECT_THROW((void)exec_instr(ld, 0, st), PreconditionError);
  ld.imm_i = -1;
  EXPECT_THROW((void)exec_instr(ld, 0, st), PreconditionError);
}

TEST(Isa, UnitClassesMatchSection21) {
  // "two integer units, a floating-point unit, a memory (load/store) unit,
  // and a branch unit"
  EXPECT_EQ(unit_of(Op::kAdd), UnitClass::kAlu);
  EXPECT_EQ(unit_of(Op::kFmul), UnitClass::kFpu);
  EXPECT_EQ(unit_of(Op::kFload), UnitClass::kLsu);
  EXPECT_EQ(unit_of(Op::kBlt), UnitClass::kBranch);
}

TEST(Isa, ValidateAcceptsSamplePrograms) {
  EXPECT_NO_THROW(validate(daxpy_program(10)));
  EXPECT_NO_THROW(validate(nr_rsqrt_program(5)));
  EXPECT_NO_THROW(validate(branchy_program(4)));
  EXPECT_NO_THROW(validate(many_blocks_program(6, 3)));
}

TEST(Isa, ValidateRejectsBadPrograms) {
  Program empty;
  EXPECT_THROW(validate(empty), PreconditionError);

  Program bad_target = daxpy_program(4);
  bad_target[9].imm_i = 1000;  // branch out of range
  EXPECT_THROW(validate(bad_target), PreconditionError);

  Program no_halt = {Instr{}};
  no_halt[0].op = Op::kFadd;
  EXPECT_THROW(validate(no_halt), PreconditionError);

  Program bad_reg = daxpy_program(4);
  bad_reg[0].a = 99;
  EXPECT_THROW(validate(bad_reg), PreconditionError);
}

TEST(Isa, ToStringCoversAllOps) {
  EXPECT_EQ(to_string(Op::kFsqrt), "fsqrt");
  EXPECT_EQ(to_string(Op::kHalt), "halt");
  EXPECT_EQ(to_string(Op::kBlt), "blt");
}

}  // namespace
}  // namespace bladed::cms
