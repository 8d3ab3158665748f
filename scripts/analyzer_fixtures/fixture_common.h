// Shared declarations for the analyzer self-test fixtures. Never compiled —
// only parsed. The Status-returning declarations below are what
// --self-test's status-function harvest picks up.

#ifndef PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_COMMON_H_
#define PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_COMMON_H_

namespace payg {

Status DoWork();
Status Flush(int fd);
Result<int> ParseCount(std::string_view in);

class StorageManager {
 public:
  Status DropChain(const std::string& name);
};

// Ambiguous on purpose: also declared void elsewhere in this file, so the
// harvest must drop it and the swallow rule must NOT fire on it.
Status Touch(int which);
void Touch(double other);

}  // namespace payg

#endif  // PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_COMMON_H_
