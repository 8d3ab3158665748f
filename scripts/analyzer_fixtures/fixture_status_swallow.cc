// Self-test fixture for the status-swallow rule. Never compiled — parsed
// only by scripts/payg_analyzer.py --self-test.

#include "fixture_common.h"

namespace payg {

void PlainDrop() {
  DoWork();  // violation: Status dropped in statement position
}

void TernaryDrop(bool fast) {
  fast ? DoWork() : Flush(1);  // violation: both arms dropped
}

void VoidCastDrop() {
  (void)DoWork();  // violation: the cast is the drop
}

void CommaDrop(int* n) {
  DoWork(), ++*n;  // violation: comma operator discards the Status
}

void MemberCallDrop(StorageManager* storage) {
  (void)storage->DropChain("x");  // violation: member call, cast away
}

void CleanUses() {
  Status s = DoWork();
  if (!s.ok()) return;
  PAYG_RETURN_IF_ERROR(Flush(1));
  if (!Flush(2).ok()) return;
  // Ambiguous name (also declared void): must not fire.
  Touch(1);
}

}  // namespace payg
