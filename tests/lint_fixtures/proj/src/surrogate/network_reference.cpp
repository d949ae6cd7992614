// Outside src/surrogate/infer.* the autograd reference pipeline may use the
// tape API freely: nothing here is flagged.

void reference_gradient(FakeTensor& s_plan, FakeTensor& fill) {
  s_plan.backward();
  float* g = fill.grad();
  (void)g;
}
