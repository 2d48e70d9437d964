#include "mm/exprs.hh"

namespace lts::mm
{

using namespace rel;

ExprPtr
singleton(size_t atom, size_t n)
{
    Bitset s(n);
    s.set(atom);
    return mkConst(s);
}

ExprPtr
indexLt(size_t n)
{
    BitMatrix lt(n);
    for (size_t i = 0; i < n; i++) {
        for (size_t j = i + 1; j < n; j++)
            lt.set(i, j);
    }
    return mkConst(lt);
}

FormulaPtr
cellIn(const ExprPtr &r, size_t i, size_t j, size_t n)
{
    return mkSome(mkRanRestrict(mkDomRestrict(singleton(i, n), r),
                                singleton(j, n)));
}

ExprPtr
mem(const Env &env)
{
    return env.get(kR) + env.get(kW);
}

ExprPtr
poLoc(const Env &env)
{
    return env.get(kPo) & env.get(kSloc);
}

ExprPtr
sameThread(const Env &env)
{
    return env.get(kPo) + mkTranspose(env.get(kPo));
}

ExprPtr
fr(const Env &env)
{
    ExprPtr same_loc_rw = mkRanRestrict(
        mkDomRestrict(env.get(kR), env.get(kSloc)), env.get(kW));
    ExprPtr reaches_back = mkJoin(mkTranspose(env.get(kRf)),
                                  mkRClosure(mkTranspose(env.get(kCo))));
    return same_loc_rw - reaches_back;
}

ExprPtr
com(const Env &env)
{
    return env.get(kRf) + env.get(kCo) + fr(env);
}

ExprPtr
external(const Env &env, const ExprPtr &r)
{
    return r - sameThread(env);
}

ExprPtr
internal(const Env &env, const ExprPtr &r)
{
    return r & sameThread(env);
}

ExprPtr
rfe(const Env &env)
{
    return external(env, env.get(kRf));
}

ExprPtr
rfi(const Env &env)
{
    return internal(env, env.get(kRf));
}

ExprPtr
coe(const Env &env)
{
    return external(env, env.get(kCo));
}

ExprPtr
fre(const Env &env)
{
    return external(env, fr(env));
}

ExprPtr
fenceOrder(const Env &env, const ExprPtr &fence_set)
{
    return mkJoin(mkRanRestrict(env.get(kPo), fence_set), env.get(kPo));
}

} // namespace lts::mm
